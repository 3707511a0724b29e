package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Binary program codec: the one encoding of a program's identity.
//
// EncodeProgram writes every field that identifies a program — its
// name, entry, memory size, data segments in declaration order, and
// every block's instructions (opcodes, register operands, immediates,
// branch targets, call descriptors, speculation flags) plus the block
// metadata downstream consumers read (superblock annotations, schedule
// cycles, span, layout address). Fingerprint is the sha256 of those
// bytes, and the disk artifact store keeps the same bytes. The textual
// format (text.go) cannot serve either purpose: it deliberately drops
// schedule annotations, superblock metadata and layout addresses, and a
// compiled program that lost its Cycles would be re-measured at one
// cycle per instruction, its translation-validation metadata
// (UnitOrigins) gone.
//
// The encoding is length-prefixed varints throughout (Encoder), with a
// presence flag wherever nil and empty differ, and it has one canonical
// form per program: EncodeProgram(DecodeProgram(b)) == b for any b that
// EncodeProgram wrote. The store checks an entry by decoding it and
// re-fingerprinting the result, which tests exactly that round trip.
// Any truncation or corruption surfaces as a decode error or a
// fingerprint mismatch, never as a silently different program.
//
// Derived state is excluded: the memoized execution decode and the
// virtual-register cursor. Decoding resets the cursor above the highest
// register in use, so a consumer that (unexpectedly) asks a decoded
// procedure for a fresh virtual register can never collide with an
// existing one.

// codecMagic versions the binary program encoding. Bump on any layout
// change: entries written by other versions then fail to decode and
// are rebuilt, which is always safe.
const codecMagic = "pathsched-ir-bin-v1\n"

// Encoder appends varint-framed fields to a buffer. It is the one
// framing of every content address in the repository: EncodeProgram
// writes programs through it, and the formation-config digest and the
// pipeline's compile keys frame their fields with it too. Every
// variable-length field is length-prefixed, so distinct field
// sequences cannot collide by sliding bytes across field boundaries.
type Encoder struct {
	buf []byte
}

// NewEncoder starts an encoding with domain, written raw: a constant
// that names what is encoded and its version. No domain is a prefix
// of another, so encodings of different kinds never share bytes, and
// bumping a domain's version retires every earlier encoding of its
// kind.
func NewEncoder(domain string) *Encoder { return &Encoder{buf: []byte(domain)} }

// U64 appends v as a uvarint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends v as a zigzag varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Str appends s, length-prefixed.
func (e *Encoder) Str(s string) { e.U64(uint64(len(s))); e.buf = append(e.buf, s...) }

// Bool appends b as a uvarint 0 or 1.
func (e *Encoder) Bool(b bool) {
	if b {
		e.U64(1)
	} else {
		e.U64(0)
	}
}

// Digest appends d's 32 bytes; its width is fixed, so it needs no
// length prefix.
func (e *Encoder) Digest(d Digest) { e.buf = append(e.buf, d[:]...) }

// Bytes returns the encoding so far.
func (e *Encoder) Bytes() []byte { return e.buf }

// Sum returns the sha256 of the encoding so far.
func (e *Encoder) Sum() Digest { return sha256.Sum256(e.buf) }

// encInts appends a length-prefixed list of 32-bit values.
func encInts[T ~int32](e *Encoder, s []T) {
	e.U64(uint64(len(s)))
	for _, v := range s {
		e.I64(int64(v))
	}
}

// encOptInts appends presence (nil and empty differ: nil Cycles means
// unscheduled) followed by the list.
func encOptInts[T ~int32](e *Encoder, s []T) {
	e.Bool(s != nil)
	if s != nil {
		encInts(e, s)
	}
}

// EncodeProgram serializes prog into the binary codec format.
func EncodeProgram(prog *Program) []byte {
	e := NewEncoder(codecMagic)
	e.Str(prog.Name)
	e.I64(int64(prog.Main))
	e.I64(prog.MemSize)

	e.U64(uint64(len(prog.Data)))
	for _, seg := range prog.Data {
		e.I64(seg.Addr)
		e.U64(uint64(len(seg.Values)))
		for _, v := range seg.Values {
			e.I64(v)
		}
	}

	e.U64(uint64(len(prog.Procs)))
	for _, p := range prog.Procs {
		e.Bool(p != nil)
		if p == nil {
			continue
		}
		e.Str(p.Name)
		e.I64(int64(p.ID))
		e.U64(uint64(len(p.Blocks)))
		for _, b := range p.Blocks {
			e.block(b)
		}
	}
	return e.Bytes()
}

func (e *Encoder) block(b *Block) {
	e.I64(int64(b.ID))
	e.I64(int64(b.Origin))
	e.I64(int64(b.SBID))
	e.I64(int64(b.SBIndex))
	e.I64(int64(b.SBSize))
	e.I64(int64(b.Span))
	e.I64(b.Addr)
	encOptInts(e, b.ExitUnits)
	encOptInts(e, b.Units)
	encOptInts(e, b.UnitOrigins)
	encOptInts(e, b.Cycles)
	e.U64(uint64(len(b.Instrs)))
	for i := range b.Instrs {
		ins := &b.Instrs[i]
		e.U64(uint64(ins.Op))
		e.I64(int64(ins.Dst))
		e.I64(int64(ins.Src1))
		e.I64(int64(ins.Src2))
		e.I64(ins.Imm)
		e.Bool(ins.Spec)
		encInts(e, ins.Targets)
		e.I64(int64(ins.Callee))
		encInts(e, ins.Args)
	}
}

// DecodeProgram parses data written by EncodeProgram. It validates
// framing (magic, lengths, trailing bytes) but not program semantics:
// callers that need a verified program run ir.Verify, and the artifact
// store additionally re-fingerprints the result against the
// fingerprint recorded with it.
func DecodeProgram(data []byte) (*Program, error) {
	d := &progDecoder{buf: data}
	magic, err := d.rawN(len(codecMagic))
	if err != nil || string(magic) != codecMagic {
		return nil, fmt.Errorf("ir: decode: bad or missing codec magic")
	}
	prog := &Program{}
	prog.Name = d.str()
	prog.Main = ProcID(d.i64())
	prog.MemSize = d.i64()

	nseg := d.count()
	if d.err == nil && nseg > 0 {
		prog.Data = make([]DataSeg, 0, nseg)
	}
	for i := uint64(0); i < nseg && d.err == nil; i++ {
		seg := DataSeg{Addr: d.i64()}
		nv := d.count()
		if d.err == nil && nv > 0 {
			seg.Values = make([]int64, nv)
			for j := range seg.Values {
				seg.Values[j] = d.i64()
			}
		}
		prog.Data = append(prog.Data, seg)
	}

	nproc := d.count()
	if d.err == nil {
		prog.Procs = make([]*Proc, 0, nproc)
	}
	for i := uint64(0); i < nproc && d.err == nil; i++ {
		if !d.bool() {
			prog.Procs = append(prog.Procs, nil)
			continue
		}
		p := &Proc{}
		p.Name = d.str()
		p.ID = ProcID(d.i64())
		nblk := d.count()
		if d.err == nil && nblk > 0 {
			p.Blocks = make([]*Block, 0, nblk)
		}
		for j := uint64(0); j < nblk && d.err == nil; j++ {
			p.Blocks = append(p.Blocks, d.block())
		}
		// Reset the virtual-register cursor above every register in
		// use (the encoding excludes it).
		if d.err == nil {
			p.nextVirt = p.MaxReg() + 1
			if p.nextVirt < VirtBase {
				p.nextVirt = VirtBase
			}
		}
		prog.Procs = append(prog.Procs, p)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("ir: decode: %d trailing bytes", len(d.buf))
	}
	return prog, nil
}

func (d *progDecoder) block() *Block {
	b := &Block{
		ID:      BlockID(d.i64()),
		Origin:  BlockID(d.i64()),
		SBID:    int32(d.i64()),
		SBIndex: int32(d.i64()),
		SBSize:  int32(d.i64()),
		Span:    int32(d.i64()),
		Addr:    d.i64(),
	}
	b.ExitUnits = decOptInts[int32](d)
	b.Units = decOptInts[int32](d)
	b.UnitOrigins = decOptInts[BlockID](d)
	b.Cycles = decOptInts[int32](d)
	nins := d.count()
	if d.err == nil && nins > 0 {
		b.Instrs = make([]Instr, nins)
	}
	for i := uint64(0); i < nins && d.err == nil; i++ {
		ins := &b.Instrs[i]
		ins.Op = Opcode(d.u64())
		ins.Dst = Reg(d.i64())
		ins.Src1 = Reg(d.i64())
		ins.Src2 = Reg(d.i64())
		ins.Imm = d.i64()
		ins.Spec = d.bool()
		ins.Targets = decInts[BlockID](d)
		ins.Callee = ProcID(d.i64())
		ins.Args = decInts[Reg](d)
	}
	return b
}

// progDecoder consumes the buffer with sticky error handling: after
// the first framing error every read returns zero values and the error
// is reported once at the end.
type progDecoder struct {
	buf []byte
	err error
}

func (d *progDecoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("ir: decode: %s", msg)
	}
}

func (d *progDecoder) rawN(n int) ([]byte, error) {
	if len(d.buf) < n {
		return nil, fmt.Errorf("ir: decode: truncated (%d bytes, need %d)", len(d.buf), n)
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b, nil
}

func (d *progDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated or malformed uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *progDecoder) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("truncated or malformed varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *progDecoder) bool() bool { return d.u64() != 0 }

// count reads a length prefix and sanity-checks it against the bytes
// remaining: every counted element needs at least one byte, so a count
// beyond len(buf) proves corruption without attempting the allocation.
// It reads 0 once decoding has failed.
func (d *progDecoder) count() uint64 {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.fail("length prefix exceeds remaining input")
		return 0
	}
	return n
}

func (d *progDecoder) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	b, err := d.rawN(int(n))
	if err != nil {
		d.err = err
		return ""
	}
	return string(b)
}

// decInts reads a list written by encInts; an empty list reads as nil.
func decInts[T ~int32](d *progDecoder) []T {
	n := d.count()
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = T(d.i64())
	}
	return s
}

// decOptInts reads a list written by encOptInts: absent reads as nil,
// present but empty as an empty, non-nil list.
func decOptInts[T ~int32](d *progDecoder) []T {
	if !d.bool() {
		return nil
	}
	s := decInts[T](d)
	if s == nil {
		s = []T{}
	}
	return s
}
