// Command determinismlint guards the pipeline's reproducibility
// guarantee: it flags every map-range iteration in the packages whose
// output must be byte-deterministic (determinism.Packages), unless the
// loop is an order-insensitive key collection or carries a
// //lint:ordered annotation. CI runs it on every push; see
// internal/lint/determinism for the rules.
//
// Usage:
//
//	determinismlint              # lint determinism.Packages
//	determinismlint internal/ir  # lint specific packages
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pathsched/internal/lint/determinism"
)

func main() {
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = determinism.Packages
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "determinismlint:", err)
		os.Exit(2)
	}
	findings, err := determinism.Check(root, "pathsched", pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "determinismlint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "determinismlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
