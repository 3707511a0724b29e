package interp

import "pathsched/internal/ir"

// batchCap is the batch buffer size: 1024 records = 8KB, small enough
// to stay cache-resident, large enough that the per-record flush
// amortizes to noise.
const batchCap = 1024

// batcher accumulates edge records for a BatchObserver. The engine
// appends to buf inline in its transfer tail (see exec.go) and calls
// flush at activation boundaries. The test oracle (reference_test.go)
// drives the same struct as a per-event Observer adapter, so both
// produce the same sequence of BeginProc/EdgeBatch/EndProc calls,
// flush boundaries included, for the same event stream.
type batcher struct {
	bo   BatchObserver
	proc ir.ProcID // proc of the buffered records (set on every append)
	n    int
	buf  [batchCap]EdgeRec
}

// flush delivers pending records, if any. Called before BeginProc and
// EndProc so batches never span activations.
func (b *batcher) flush() {
	if b.n > 0 {
		b.bo.EdgeBatch(b.proc, b.buf[:b.n])
		b.n = 0
	}
}
