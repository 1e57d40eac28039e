package main

// perLayer lists every single-layer metric a traced run prints, in the
// order BENCHMARK.json carries them. They have no bound: they explain a
// move in an end-to-end metric, they are not themselves gated. A row
// that does not apply to a workload (meta latency on a stream, data-plane
// spans on arbiter_churn) reads 0 there.
var perLayer = func() []metricSpec {
	var out []metricSpec
	higher := map[string]bool{
		"op.write_mbps": true, "op.read_mbps": true, "op.tail_pct": true, "agios.merge_ratio.AIOLI": true,
	}
	add := func(unit string, names ...string) {
		for _, n := range names {
			m := metricSpec{name: n, unit: unit, better: "lower"}
			if higher[n] {
				m.better = "higher"
			}
			out = append(out, m)
		}
	}
	// The traced workload itself, per op kind.
	add("us", "op.write_p50_us", "op.read_p50_us", "op.meta_p50_us", "op.start_p50_us", "op.finish_p50_us", "op.tail_us")
	add("MB/s", "op.write_mbps", "op.read_mbps")
	add("%", "op.tail_pct")
	add("KB", "process.alloc_kb_per_op")
	// Spans recorded by the bench/ wrappers (means per op; the three
	// self times sum to trace.op_us).
	add("us", "trace.op_us", "trace.fwd_rpc_self_us", "trace.ion_agios_self_us", "trace.pfs_us",
		"trace.arbiter_call_us", "trace.bus_deliver_us", "trace.client_apply_us")
	add("count", "trace.wire_reqs_per_op", "trace.pfs_calls_per_op", "trace.conns_opened")
	add("ratio", "trace.wire_bytes_per_byte")
	add("%", "trace.overhead_pct")
	// Counts read through public accessors after the traced window.
	add("count", "fwd.forwarded_per_op", "fwd.direct_ops", "fwd.failover_ops", "fwd.degraded_ops", "fwd.replayed_writes",
		"ion.dispatches_per_op", "ion.aggregated", "ion.queue_rejects", "ion.dedup_replays",
		"pfs.seeks", "pfs.lock_waits")
	// The ledger: each layer in isolation (see ledger.go).
	add("us", "pfs.write_us.4k", "pfs.write_us.512k", "pfs.read_us.4k", "pfs.read_us.512k", "pfs.stat_us")
	add("ns", "agios.pushpop_ns.FIFO", "agios.pushpop_ns.SJF", "agios.pushpop_ns.AIOLI", "agios.pushpop_ns.TWINS", "agios.pushpop_ns.WFQ")
	add("ratio", "agios.merge_ratio.AIOLI")
	add("ns", "rpc.encode_ns.4k", "rpc.encode_ns.512k", "rpc.decode_ns.4k", "rpc.decode_ns.512k", "rpc.checksum_ns.512k")
	add("us", "rpc.roundtrip_us.0k", "rpc.roundtrip_us.4k", "rpc.roundtrip_us.512k", "rpc.roundtrip_us.4m")
	add("count", "rpc.allocs_per_call.512k")
	for _, layer := range []string{"ion.call_us.", "ion.self_us.", "fwd.op_us.", "fwd.self_us."} {
		add("us", layer+"write4k", layer+"write512k", layer+"write4m", layer+"read512k", layer+"stat")
	}
	add("us", "fwd.direct_us.write512k", "fwd.applymap_us", "mapping.publish_us", "mapping.deliver_us",
		"mckp.solve_us.live", "mckp.solve_us.paper", "policy.allocate_us.live", "journal.append_us")
	add("ms", "journal.replay_ms.10k")
	add("us", "arbiter.decision_us.nojournal", "arbiter.decision_us.journal")
	add("ms", "arbiter.recover_ms")
	add("us", "tax.checksum_us", "tax.dedup_us", "tax.epoch_us", "tax.qos_us", "tax.throttle_us",
		"tax.hedge_us", "tax.tracer_us", "tax.rpcopts_us", "tax.all_us")
	add("%", "ledger.gap_pct.write4k", "ledger.gap_pct.write512k")
	return out
}()
