//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric each
//! one is predicted to move. `BENCHMARK.json` at the repo root carries the
//! same names, units, directions and bounds (a test compares the two).

/// An end-to-end metric: what a user of the served index sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

/// A metric of one layer, measured from outside it.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric, and workload, this layer is predicted to move.
    pub moves: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "workload start to first answered request: generate, (partition,) build, freeze, (overlay,) bind; median of the run's repeated set-ups",
    },
    EndToEnd {
        name: "query_qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "correctly answered queries per second; median over 20 equal slices of the measured phase",
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "median send-to-reply time of one request (a QUERY, or a whole BATCH) at the workload's in-flight count",
    },
    EndToEnd {
        name: "latency_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "90th percentile of the same",
    },
    EndToEnd {
        name: "answered_share",
        unit: "share",
        better: "higher",
        bound: 0.001,
        what: "1 - failed_share: requests answered correctly over requests attempted (errors, busy refusals and wrong answers all fail); expected exactly 1",
    },
    EndToEnd {
        name: "index_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.01,
        what: "encoded bytes of everything served: all shard snapshots plus the overlay; the last generation under churn",
    },
    EndToEnd {
        name: "update_to_servable_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "median time to put a changed index into service. social-churn: update cycle due -> RELOAD acknowledged, under read load; other workloads: encode + RELOAD of the served snapshot, written to disk once beforehand, on the idle server after the reads",
    },
];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $moves:expr) => {
        Layer { name: $name, unit: $unit, better: $better, moves: $moves }
    };
}

const SETUP: &str = "setup_s, every workload";
const ROAD_Q: &str = "query_qps and latency_* on road-batch; no movement predicted on social-point";
const FANOUT: &str = "query_qps on road-batch and road-routed";
const POINT: &str = "query_qps on social-point";
const UPDATE: &str = "update_to_servable_p50_ms on social-churn";
const ROUTED: &str = "query_qps and latency_* on road-routed only";
const INSTRUMENT: &str = "none: a reading of the instrument itself";

/// Per-layer metrics, outermost concern first. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [Layer; 72] = [
    // Set-up path.
    layer!("graph.generate_s", "s", "lower", SETUP),
    layer!("graph.partition_s", "s", "lower", "setup_s on road-routed"),
    layer!("order.order_s", "s", "lower", SETUP),
    layer!("core.build.sweep_s", "s", "lower", "setup_s; dominates on road-batch"),
    layer!(
        "core.build.entries",
        "count",
        "lower",
        "index_mib and core.kernel.entries_scanned_per_query"
    ),
    layer!("core.flat.freeze_s", "s", "lower", SETUP),
    layer!("core.overlay.build_s", "s", "lower", "setup_s on road-routed, where it dominates"),
    // Query kernel, replayed in process on one thread.
    layer!("core.flat.distance_ns", "ns", "lower", ROAD_Q),
    layer!(
        "core.index.distance_ns",
        "ns",
        "lower",
        "none: the nested reference beside core.flat.distance_ns"
    ),
    layer!("core.kernel.group_min_ns", "ns", "lower", ROAD_Q),
    layer!("core.kernel.groups_compared_per_query", "count", "lower", ROAD_Q),
    layer!("core.kernel.groups_matched_per_query", "count", "lower", ROAD_Q),
    layer!("core.kernel.entries_scanned_per_query", "count", "lower", ROAD_Q),
    layer!("core.parallel.par_distances_b64_ns", "ns", "lower", FANOUT),
    layer!("core.parallel.par_distances_b16_ns", "ns", "lower", FANOUT),
    layer!("core.parallel.fanout_cost_ns", "ns", "lower", FANOUT),
    // Wire and cache, replayed in process.
    layer!("server.protocol.parse_ns", "ns", "lower", POINT),
    layer!("server.protocol.encode_ns", "ns", "lower", POINT),
    layer!(
        "server.binary.frame_ns",
        "ns",
        "lower",
        "query_qps on road-batch (amortised over the batch)"
    ),
    layer!("server.cache.get_insert_ns", "ns", "lower", POINT),
    layer!(
        "server.cache.hit_rate",
        "share",
        "higher",
        "query_qps on social-point; its drop on social-churn is what a reload costs readers"
    ),
    // Reactor phases, from METRICS deltas over the measured phase.
    layer!("server.reactor.parse_us_mean", "us", "lower", POINT),
    layer!("server.reactor.queue_us_mean", "us", "lower", "latency_p90_us on road-batch"),
    layer!("server.reactor.execute_us_mean", "us", "lower", "query_qps on road-batch"),
    layer!("server.reactor.write_us_mean", "us", "lower", POINT),
    layer!("server.reactor.requests", "count", "higher", "query_qps, every workload"),
    layer!("server.reactor.shed", "count", "lower", "answered_share, every workload"),
    layer!(
        "server.reactor.residual_us",
        "us",
        "lower",
        "query_qps on social-point: syscalls and wake-ups outside the timed phases"
    ),
    // Update path.
    layer!("core.dynamic.insert_ms", "ms", "lower", UPDATE),
    layer!("core.dynamic.remove_ms", "ms", "lower", UPDATE),
    layer!("core.decremental.affected_hubs_mean", "count", "lower", UPDATE),
    layer!("core.dynamic.rebuild_fallbacks", "count", "lower", UPDATE),
    layer!("core.dynamic.freeze_ms", "ms", "lower", UPDATE),
    layer!("core.flat.encode_ms", "ms", "lower", "update_to_servable_p50_ms, every workload"),
    layer!("core.flat.snapshot_bytes", "B", "lower", "index_mib"),
    layer!("server.snapshot.write_ms", "ms", "lower", "update_to_servable_p50_ms, every workload"),
    layer!(
        "server.reload.roundtrip_ms",
        "ms",
        "lower",
        "update_to_servable_p50_ms, every workload"
    ),
    layer!("server.reload.decode_ms", "ms", "lower", "update_to_servable_p50_ms, every workload"),
    layer!("server.reload.swap_ms", "ms", "lower", "update_to_servable_p50_ms, every workload"),
    layer!("core.flat.decode_s", "s", "lower", "server.reload.decode_ms"),
    layer!(
        "core.flat.view_parse_s",
        "s",
        "lower",
        "none: the zero-copy alternative beside core.flat.decode_s"
    ),
    // Sharded path.
    layer!("core.overlay.boundary_vertices", "count", "lower", ROUTED),
    layer!("core.overlay.edges", "count", "lower", ROUTED),
    layer!("core.overlay.fanout_per_query", "count", "lower", ROUTED),
    layer!("core.overlay.plan_ns", "ns", "lower", ROUTED),
    layer!("core.overlay.merge_us", "us", "lower", ROUTED),
    layer!("core.overlay.sharded_distance_us", "us", "lower", ROUTED),
    layer!("server.router.fanout_queries_per_query", "count", "lower", ROUTED),
    layer!("server.router.cache_hit_rate", "share", "higher", ROUTED),
    layer!("server.router.failovers", "count", "lower", "answered_share on road-routed"),
    layer!("server.router.overhead_us", "us", "lower", "latency_p50_us on road-routed"),
    // The instrument.
    layer!("loadgen.latency_p99_us", "us", "lower", INSTRUMENT),
    layer!("loadgen.latency_max_us", "us", "lower", INSTRUMENT),
    layer!("loadgen.requests", "count", "higher", INSTRUMENT),
    layer!("loadgen.query_qps_mean", "1/s", "higher", INSTRUMENT),
    layer!("loadgen.failed_share", "share", "lower", INSTRUMENT),
    layer!("loadgen.errors", "count", "lower", INSTRUMENT),
    layer!("loadgen.refused", "count", "lower", INSTRUMENT),
    layer!("loadgen.wrong_answers", "count", "lower", INSTRUMENT),
    layer!("loadgen.oracle_checked", "count", "higher", INSTRUMENT),
    layer!("loadgen.timer_ns", "ns", "lower", INSTRUMENT),
    layer!("loadgen.generator_headroom", "ratio", "higher", INSTRUMENT),
    layer!("loadgen.feeder_lag_p50_ms", "ms", "lower", INSTRUMENT),
    layer!("loadgen.update_cycles", "count", "higher", INSTRUMENT),
    layer!("trace.overhead_share", "share", "lower", INSTRUMENT),
    layer!("trace.spans", "count", "lower", INSTRUMENT),
    layer!("trace.generate_self_us", "us", "lower", INSTRUMENT),
    layer!("trace.send_self_us", "us", "lower", INSTRUMENT),
    layer!("trace.wait_self_us", "us", "lower", INSTRUMENT),
    layer!("trace.turn_self_us", "us", "lower", INSTRUMENT),
    layer!("loadgen.in_flight", "count", "higher", INSTRUMENT),
    layer!("loadgen.measured_s", "s", "higher", INSTRUMENT),
];

/// One workload: its fixed name and the reason it is in the benchmark.
pub struct WorkloadDoc {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDoc; 4] = [
    WorkloadDoc {
        name: "road-batch",
        why: "the paper's uniform queries as BATCH 64, 4 in flight, on a 9216-vertex road grid whose labels far exceed L2: flat/kernel/parallel do the work, the cache only misses",
    },
    WorkloadDoc {
        name: "social-point",
        why: "32 pipelined Zipf QUERY lines in flight on a 2000-vertex BA graph that fits L2: parse, cache, encode and syscalls dominate a 1us merge",
    },
    WorkloadDoc {
        name: "social-churn",
        why: "social-point reads beside an update feed (insert, remove, freeze, encode, write, RELOAD every 400 ms): shows a read gain paid for at reload time",
    },
    WorkloadDoc {
        name: "road-routed",
        why: "BATCH 16, 4 in flight, through the router over a 2-shard 1600-vertex road grid: the only workload where router and overlay (plan, scatter, merge) do the work",
    },
];

/// The catalogue as the markdown tables `README.md` carries.
pub fn markdown() -> String {
    use std::fmt::Write;
    let mut out = String::from("| workload | why |\n|---|---|\n");
    for w in &WORKLOADS {
        writeln!(out, "| `{}` | {} |", w.name, w.why).expect("write to string");
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | what it is |\n|---|---|---|---:|---|\n",
    );
    for m in &END_TO_END {
        writeln!(
            out,
            "| `{}` | {} | {} | {}% | {} |",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.what
        )
        .expect("write to string");
    }
    out.push_str("\n| per-layer metric | unit | better | predicted to move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        writeln!(out, "| `{}` | {} | {} | {} |", m.name, m.unit, m.better, m.moves)
            .expect("write to string");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        assert!(names.iter().all(|n| ok_name(n)), "a name breaks the contract");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| ok_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(PER_LAYER.len() <= 128);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let better = |b: &str| b == "lower" || b == "higher";
        assert!(END_TO_END.iter().all(|m| better(m.better)));
        assert!(PER_LAYER.iter().all(|m| better(m.better)));
    }
}
