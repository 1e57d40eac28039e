// Package repro is a from-scratch Go reproduction of "Arbitration Policies
// for On-Demand User-Level I/O Forwarding on HPC Platforms" (Bez, Miranda,
// Nou, Boito, Cortes, Navaux — IPDPS 2021).
//
// The repository contains the complete system stack the paper builds and
// evaluates:
//
//   - internal/mckp — the Multiple-Choice Knapsack DP behind the paper's
//     arbitration policy;
//   - internal/policy — ZERO, ONE, STATIC, SIZE, PROCESS, ORACLE, MCKP;
//   - internal/pattern, internal/perfmodel — the access-pattern space and
//     the calibrated performance model standing in for the MareNostrum 4
//     survey measurements;
//   - internal/forge — the FORGE-style policy-evaluation campaign
//     (Figures 2–3);
//   - internal/rpc, internal/pfs, internal/agios, internal/ion,
//     internal/fwd, internal/mapping — the GekkoFWD-style on-demand
//     user-level forwarding stack (client interposition, I/O-node daemons
//     with AGIOS request scheduling, Lustre-like PFS substrate, dynamic
//     remapping);
//   - internal/arbiter, internal/jobs — the live policy solver and the
//     §5.3 dynamic-queue engine (Figure 9);
//   - internal/darshan — Darshan-style characterization feeding MCKP;
//   - internal/apps — the evaluation application kernels of Table 3;
//   - internal/experiments — regeneration of every table and figure.
//
// The benchmarks in bench_test.go regenerate each table/figure; run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured comparison.
package repro
