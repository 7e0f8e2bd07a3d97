// Package repro is a from-scratch Go reproduction of "Cross-Layer
// Fault-Space Pruning for Hardware-Assisted Fault Injection" (Dietrich,
// Schmider, Pusz, Payá Vayá, Lohmann — DAC 2018).
//
// The paper introduces fault-masking terms (MATEs): small boolean
// conjunctions over the border wires of a flip-flop's fault cone that,
// whenever they hold in the current circuit state, prove that a single
// event upset on that flip-flop in that clock cycle is logically masked
// within one cycle — and can therefore be pruned from a fault-injection
// campaign before it is ever executed.
//
// The repository rebuilds the complete experimental stack in pure Go
// (standard library only):
//
//   - internal/cell      — standard-cell library + gate-masking terms
//   - internal/netlist   — gate-level netlist IR and structural analyses
//   - internal/synth     — word-level structural synthesis (adders, muxes,
//     register files, ...)
//   - internal/sim       — cycle-accurate gate-level simulation: the scalar
//     reference machine with wire-level traces, and the one lane-parallel
//     machine (64·W experiments per evaluation pass) with its bit-plane
//     memory environment
//   - internal/vcd       — VCD trace writer/parser
//   - internal/cpu/avr   — AVR-class 2-stage pipelined 8-bit core,
//     assembler and golden-model ISS
//   - internal/cpu/msp430— MSP430-class multi-cycle 16-bit core, assembler
//     and ISS
//   - internal/progs     — the paper's fib and conv workloads for both ISAs
//   - internal/core      — the contribution: fault cones, MATE search,
//     exact masking oracle
//   - internal/prune     — trace replay, fault-space accounting, top-N
//     selection
//   - internal/hafi      — HAFI platform model: the sequential reference
//     controller, one wide device and one lane-scheduled campaign engine
//     over a pool of them, online pruning, fault models, FPGA LUT cost
//     model
//   - internal/experiments — regenerates every table and figure
//
// See README.md for a walkthrough, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results. The
// benchmark harness in bench_test.go regenerates each table and figure:
//
//	go test -bench=. -benchmem
//	go run ./cmd/reproduce
package repro
