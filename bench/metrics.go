package main

// metricDef names one reported metric. The two lists below are the same as
// `end_to_end` and `per_layer` in BENCHMARK.json; a test holds them equal.
type metricDef struct {
	name, unit, better string
}

// endToEnd is measured with stamping off (--trace 0).
var endToEnd = []metricDef{
	{"solo_p50_us", "us", "lower"},
	{"sat_rps", "1/s", "higher"},
	{"sat_p50_us", "us", "lower"},
	{"cpu_us_per_req", "us", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer is measured by the traced run (--trace 1): spans from the
// traced pass, probes of each layer's public API, and differences of the
// public Stats() surfaces across the sat phase.
var perLayer = []metricDef{
	// spans: mean over the requests in the median latency band
	{"ingress.client_to_server_us", "us", "lower"},
	{"ingress.serve_self_us", "us", "lower"},
	{"ingress.server_to_client_us", "us", "lower"},
	{"ingress.share", "ratio", "lower"},
	{"core.to_first_handler_us", "us", "lower"},
	{"core.hop_us", "us", "lower"},
	{"core.hops_per_req", "count", "lower"},
	{"core.reply_us", "us", "lower"},
	{"core.fanout_spread_us", "us", "lower"},
	{"orchestrator.xnode_forward_us", "us", "lower"},
	{"orchestrator.xnode_reply_us", "us", "lower"},
	{"handler.self_us", "us", "lower"},
	{"trace.p50_us", "us", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	// probes: median of 20 batches of a fixed iteration count
	{"core.sproxy_send_ns", "ns", "lower"},
	{"core.socket_deliver_ns", "ns", "lower"},
	{"core.eproxy_ingress_ns", "ns", "lower"},
	{"ebpf.run_jit_ns", "ns", "lower"},
	{"ebpf.run_interp_ns", "ns", "lower"},
	{"ring.enq_deq_ns", "ns", "lower"},
	{"ring.bulk32_ns", "ns", "lower"},
	{"shm.get_write_put_1k_ns", "ns", "lower"},
	{"shm.write_64k_ns", "ns", "lower"},
	{"objstore.put_1m_us", "us", "lower"},
	{"objstore.open_walk_1m_ns", "ns", "lower"},
	{"wire.encode_16k_ns", "ns", "lower"},
	{"wire.decode_16k_ns", "ns", "lower"},
	{"transport.rtt_16k_us", "us", "lower"},
	{"transport.rtt_allocs", "count", "lower"},
	{"core.invoke_256b_us", "us", "lower"},
	{"core.ingest_raw_http_us", "us", "lower"},
	{"orchestrator.deploy_boutique_ms", "ms", "lower"},
	{"obs.scrape_us", "us", "lower"},
	{"obs.flight_emit_ns", "ns", "lower"},
	// counters: difference across the sat phase
	{"ebpf.runs_per_req", "count", "lower"},
	{"ebpf.interp_share", "ratio", "lower"},
	{"ring.full_per_req", "count", "lower"},
	{"ring.wait_us_per_req", "us", "lower"},
	{"shm.pool_highwater", "count", "lower"},
	{"shm.steals_per_req", "count", "lower"},
	{"objstore.spills", "count", "lower"},
	{"objstore.resident_mb", "MB", "lower"},
	{"transport.frames_per_write", "count", "higher"},
	{"transport.bytes_per_req", "B", "lower"},
	{"transport.drops", "count", "lower"},
	{"transport.reconnects", "count", "lower"},
	{"core.shed_share", "ratio", "lower"},
	{"core.retries_per_req", "count", "lower"},
	{"runtime.allocs_per_req", "count", "lower"},
	{"runtime.alloc_bytes_per_req", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	// derived from the traced run's own solo and sat phases; ungated
	{"load.scale_ratio", "ratio", "higher"},
	{"load.solo_p99_us", "us", "lower"},
	{"load.sat_p99_us", "us", "lower"},
	{"load.sat_p999_us", "us", "lower"},
}
