// Package repro is a pure-Go reproduction of "PIM-DL: Expanding the
// Applicability of Commodity DRAM-PIMs for Deep Learning via
// Algorithm-System Co-Optimization" (ASPLOS 2024).
//
// See README.md for an overview, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The pimdl-experiments command regenerates every table and figure of the
// paper's evaluation:
//
//	go run ./cmd/pimdl-experiments -exp all
//
// Performance is measured by the repository benchmark (benchmark/README.md):
//
//	go run ./benchmark -workload all -seed 1
package repro
