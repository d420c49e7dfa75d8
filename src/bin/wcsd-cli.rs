//! Command-line front end for building, inspecting, querying and **serving**
//! WC-INDEX snapshots from edge-list or DIMACS graph files.
//!
//! ```text
//! wcsd-cli build <graph-file> <index-file> [--ordering degree|tree|hybrid] [--dimacs]
//! wcsd-cli stats <graph-file> [--dimacs]
//! wcsd-cli stats <host:port> [--json]
//! wcsd-cli query <graph-file> <index-file> <s> <t> <w> [--dimacs]
//! wcsd-cli serve <graph-file> <index-file-or-snapshot-dir> [--port P] [--threads N] [--cache-size N] [--max-pending N] [--slow-query-ms N] [--no-metrics] [--dimacs]
//! wcsd-cli client <host:port> <command> [args...]
//! wcsd-cli metrics <host:port> [--recent]
//! wcsd-cli reload <host:port> <index-file>
//! wcsd-cli feed <graph-file> <updates-file> <snapshot-dir> [--addr H:P] [--batch N] [--ordering ...] [--repair-threshold F] [--json PATH] [--dimacs]
//! wcsd-cli partition <graph-file> <out-dir> [--shards N] [--seed S] [--ordering ...] [--dimacs]
//! wcsd-cli route <overlay-file> <backend-group> [<backend-group>...] [--port P] [--backend-timeout-ms N] [--probe-interval-ms N] [--cache-size N] [--no-metrics]
//! ```
//!
//! `feed` is the streaming-freshness front end: it builds a dynamic index
//! over the graph, applies an edge-update stream (`add u v q` / `remove u v`
//! lines; deletions use the decremental label repair), writes one
//! generation-numbered `WCIF` snapshot per `--batch` updates into
//! `<snapshot-dir>`, and — with `--addr` — hot-swaps each snapshot into the
//! running server via `RELOAD`, reporting the update-to-servable freshness
//! latency (`--json` additionally writes the machine-readable record).
//!
//! `build` writes the read-optimized `WCIF` snapshot, the index's one
//! snapshot format (contiguous struct-of-arrays arena, each vertex's hub
//! groups ordered by hub rank; loads with a validated bulk copy, no
//! per-vertex allocation or re-sort). `query`, `serve` and `reload` refuse
//! any other file, including a `WCIF` version-1 image, which must be rebuilt.
//! Every answer goes through the branch-free chunked `Query⁺` kernel of
//! `wcsd_core::kernel`.
//!
//! `serve` loads the graph and index once, then answers queries over a
//! loopback TCP socket until a client sends `SHUTDOWN`. Its worker pool is
//! the only level of query parallelism: a `BATCH` runs on the worker that
//! dequeues it, and `serve --threads N` caps how many parts a large batch
//! arriving while workers are idle may be split into (default: one per core;
//! 1 never splits). No thread is spawned per request. `client` sends one
//! protocol command and prints the reply; `reload` hot-swaps the served
//! snapshot for another index file without dropping connections (the path
//! is resolved on the serving host — `reload` absolutizes it first, since
//! CLI and server share a machine on the loopback deployment).
//!
//! `partition` and `route` are the sharded serving tier. `partition` splits
//! the graph into `--shards` shards with the deterministic seeded balanced
//! BFS partitioner, builds one WC-INDEX⁺ per shard **subgraph** (global
//! vertex ids, intra-shard edges only) and writes `shard-<i>.fidx` `WCIF`
//! snapshots plus `overlay.wcso` — the boundary-vertex overlay through which
//! per-shard answers compose exactly — into `<out-dir>`. Serve each shard
//! snapshot with a plain `wcsd-cli serve`, then point `route` at the overlay
//! and the backend groups (in shard order): the router answers
//! `QUERY`/`BATCH`/`WITHIN` on both wire protocols by fanning per-shard
//! `BATCH`es out over persistent binary clients and composing through the
//! overlay, bit-identical to the unsharded index. `partition` reports the
//! boundary share and the overlay size and warns above a 25% boundary, where
//! the tier stops being worth deploying.
//!
//! `route --cache-size N` (default 65536, 0 = off) sizes both router-side
//! caches. The answer cache holds `N` `(s, t, w)` answers. The potential
//! cache holds per-endpoint rows `P(v, w)` — `v`'s whole-graph distances to
//! every boundary vertex — in `16 × N` distance cells, a row costing one cell
//! per boundary vertex plus 16 of bookkeeping. A query whose two endpoints
//! are resident costs no overlay search and at most one backend sub-query; a
//! cold endpoint costs one row fetch (one sub-query per boundary vertex of
//! its shard) and one search, once. The warm regime therefore needs the
//! endpoints in use — at most `n · |w|` rows of `boundary + 16` cells — to
//! fit `16 × N` cells; scrape `wcsd_router_potential_{hits,misses}_total`
//! and `wcsd_router_potential_cells` to see whether they do.
//!
//! Each `<backend-group>` is one shard's replica set: either a single
//! `host:port`, a comma list `host:port,host:port` (replicas in preference
//! order, all serving the **same** shard snapshot), or the explicit
//! `shard<N>=host:port[,host:port...]` form which pins the group to shard
//! `N` regardless of argument order. A backend that misses its
//! `--backend-timeout-ms` budget is retried once on a fresh connection, then
//! its circuit breaker opens (`wcsd_router_degraded_backends` gauge counts
//! open breakers) and the request fails over to the shard's next replica —
//! only a fully-failed group yields `ERR`. A background prober exchanges a
//! `STATS` with every replica each `--probe-interval-ms` (default 1000, 0
//! disables), so a restarted backend is un-degraded within two probe
//! intervals without any client traffic (scrape the router's own `METRICS`;
//! `wcsd_router_fanout_total` counts backend exchanges,
//! `wcsd_router_probes_total` the health probes).
//!
//! ```text
//! wcsd-cli partition road.edges /tmp/shards --shards 2
//! wcsd-cli serve road.edges /tmp/shards/shard-0.fidx --port 7981 &
//! wcsd-cli serve road.edges /tmp/shards/shard-1.fidx --port 7982 &
//! wcsd-cli serve road.edges /tmp/shards/shard-1.fidx --port 7983 &   # replica of shard 1
//! wcsd-cli route /tmp/shards/overlay.wcso 127.0.0.1:7981 127.0.0.1:7982,127.0.0.1:7983 --port 7979 &
//! wcsd-cli client 127.0.0.1:7979 query 17 93 3
//! ```
//!
//! `stats <host:port>` (address detected by the `:`) fetches a running
//! server's counters and pretty-prints them, or emits one JSON object with
//! `--json`. `metrics <host:port>` scrapes the full Prometheus text
//! exposition — per-verb request counters, request-phase and reload-phase
//! latency histograms, cache/worker gauges — and with `--recent` dumps the
//! in-memory trace ring instead (reload/build/repair spans plus the
//! slow-query log captured when `serve` ran with `--slow-query-ms`).
//! `serve --no-metrics` disables histogram and trace recording (counters
//! stay on; this is the no-op baseline used by the overhead bench).
//!
//! ## Wire protocols
//!
//! The default wire protocol is newline-delimited text (see
//! `wcsd_server::protocol`):
//!
//! ```text
//! -> QUERY <s> <t> <w>        <- DIST <d> | INF
//! -> BATCH <n>                <- OK <n>, then n DIST/INF lines
//!    (then n "<s> <t> <w>" lines)
//! -> WITHIN <s> <t> <w> <d>   <- TRUE | FALSE
//! -> STATS                    <- STATS k=v k=v ...
//! -> METRICS [recent]         <- METRICS <len>, then <len> payload bytes
//!                                (Prometheus text; `recent`: trace JSON)
//! -> RELOAD <path>            <- RELOADED generation=<g> vertices=<n> entries=<m>
//! -> SHUTDOWN                 <- BYE
//! any malformed request       <- ERR <reason>
//! shed under overload         <- ERR busy: pending job queue is full; retry later
//! ```
//!
//! The shed reply (`BATCH`/`RELOAD` arriving while the server's pending-job
//! queue is at `--max-pending`) uses that exact wording on both protocols,
//! so clients can match it to retry with backoff.
//!
//! A connection whose first two bytes are `0xBF 0x01` (magic + version)
//! switches to the length-prefixed **binary protocol** (see
//! `wcsd_server::binary`): every frame is a little-endian `u32` body length
//! followed by the body, whose first byte is the opcode. Integers are
//! little-endian `u32`; answers are a `(tag u8, d u32)` pair with tag 0 =
//! unreachable:
//!
//! ```text
//! requests                          replies
//! 0x01 QUERY    s t w               0x81 DIST     tag d
//! 0x02 BATCH    n, n x (s t w)      0x82 BATCH    n, n x (tag d)
//! 0x03 WITHIN   s t w d             0x83 BOOL     u8
//! 0x04 STATS                        0x84 STATS    utf-8 stats line
//! 0x05 SHUTDOWN                     0x85 BYE
//! 0x06 RELOAD   utf-8 path          0x86 RELOADED utf-8 reloaded line
//! 0x07 METRICS  mode u8             0x87 METRICS  utf-8 payload
//!      (0 = full exposition, 1 = recent trace ring)
//!                                   0x88 BUSY     (empty: overload shed)
//!                                   0xFF ERR      utf-8 reason
//! ```
//!
//! The `loadgen` binary (`--binary`) and `wcsd_server::Client` speak both.
//!
//! Examples:
//!
//! ```text
//! wcsd-cli serve road.edges road.idx --port 7979 --cache-size 65536
//! wcsd-cli client 127.0.0.1:7979 query 17 93 3
//! wcsd-cli client 127.0.0.1:7979 stats
//! wcsd-cli reload 127.0.0.1:7979 road-v2.fidx
//! wcsd-cli feed road.edges road.updates /tmp/snapshots --addr 127.0.0.1:7979 --batch 32
//! wcsd-cli client 127.0.0.1:7979 shutdown
//! ```
//!
//! Run with: `cargo run --release --bin wcsd-cli -- <subcommand> ...`

use std::process::ExitCode;
use std::time::Duration;
use wcsd::prelude::*;
use wcsd_cliutil::{flag_value, positional_args};
use wcsd_graph::io::read_graph_file;
use wcsd_graph::{analysis, Graph};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!("  wcsd-cli build <graph-file> <index-file> [--ordering degree|tree|hybrid] [--dimacs]");
            eprintln!("  wcsd-cli stats <graph-file> [--dimacs]");
            eprintln!("  wcsd-cli stats <host:port> [--json]");
            eprintln!("  wcsd-cli query <graph-file> <index-file> <s> <t> <w> [--dimacs]");
            eprintln!("  wcsd-cli serve <graph-file> <index-file-or-snapshot-dir> [--port P] [--threads N] [--cache-size N] [--max-pending N] [--slow-query-ms N] [--no-metrics] [--dimacs]");
            eprintln!("      (serve --threads N: most parts one BATCH is split into across idle workers; default: one per core)");
            eprintln!("  wcsd-cli client <host:port> <command> [args...]");
            eprintln!("  wcsd-cli metrics <host:port> [--recent]");
            eprintln!("  wcsd-cli reload <host:port> <index-file>");
            eprintln!("  wcsd-cli feed <graph-file> <updates-file> <snapshot-dir> [--addr H:P] [--batch N] [--ordering degree|tree|hybrid] [--repair-threshold F] [--json PATH] [--dimacs]");
            eprintln!("  wcsd-cli partition <graph-file> <out-dir> [--shards N] [--seed S] [--ordering degree|tree|hybrid] [--dimacs]");
            eprintln!("  wcsd-cli route <overlay-file> <backend-group> [<backend-group>...] [--port P] [--backend-timeout-ms N] [--probe-interval-ms N] [--cache-size N] [--no-metrics]");
            eprintln!("      (<backend-group>: host:port[,host:port...] in shard order, or shard<N>=host:port[,...])");
            ExitCode::FAILURE
        }
    }
}

/// Flags that consume the following argument as their value.
///
/// Classification depends on the subcommand: `--json` takes a path for
/// `feed` but is a boolean presence flag for the `stats` server mode, and a
/// single global list would eat the positional after it.
fn value_flags(args: &[String]) -> &'static [&'static str] {
    const COMMON: &[&str] = &[
        "--ordering",
        "--port",
        "--threads",
        "--cache-size",
        "--max-pending",
        "--addr",
        "--batch",
        "--repair-threshold",
        "--slow-query-ms",
        "--shards",
        "--seed",
        "--backend-timeout-ms",
        "--probe-interval-ms",
    ];
    const WITH_JSON_PATH: &[&str] = &[
        "--ordering",
        "--port",
        "--threads",
        "--cache-size",
        "--max-pending",
        "--addr",
        "--batch",
        "--repair-threshold",
        "--slow-query-ms",
        "--shards",
        "--seed",
        "--backend-timeout-ms",
        "--probe-interval-ms",
        "--json",
    ];
    match args.iter().find(|a| !a.starts_with("--")).map(|s| s.as_str()) {
        Some("stats") | Some("metrics") => COMMON,
        _ => WITH_JSON_PATH,
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let use_dimacs = args.iter().any(|a| a == "--dimacs");
    let ordering = parse_ordering(args)?;
    let positional = positional_args(args, value_flags(args));
    let command = positional.first().map(|s| s.as_str());
    // `--threads` is a value flag because `serve` takes it; anywhere an
    // index is built it would be skipped silently, flag and value alike.
    if matches!(command, Some("build" | "feed" | "partition"))
        && args.iter().any(|a| a == "--threads")
    {
        return Err("index construction is sequential; --threads applies only to serve".to_string());
    }

    match command {
        Some("build") => {
            let [_, graph_path, index_path] = positional[..] else {
                return Err("build requires <graph-file> <index-file>".to_string());
            };
            let graph = read_graph_file(graph_path, use_dimacs)?;
            let start = std::time::Instant::now();
            let index = IndexBuilder::new().ordering(ordering).build(&graph);
            let stats = index.stats();
            std::fs::write(index_path, FlatIndex::from_index(&index).encode())
                .map_err(|e| format!("cannot write {index_path}: {e}"))?;
            println!(
                "built WCIF index for {} vertices / {} edges in {:.2?}: {} entries ({:.2} per vertex, {:.3} MiB) -> {index_path}",
                graph.num_vertices(),
                graph.num_edges(),
                start.elapsed(),
                stats.total_entries,
                stats.avg_label_size,
                stats.megabytes()
            );
            Ok(())
        }
        Some("stats") => {
            let [_, graph_path] = positional[..] else {
                return Err("stats requires <graph-file> or <host:port>".to_string());
            };
            // A `:` marks the argument as a server address (filenames with
            // colons are not worth supporting here): fetch the live
            // counters instead of analysing a graph file.
            if graph_path.contains(':') {
                return server_stats(graph_path, args.iter().any(|a| a == "--json"));
            }
            let graph = read_graph_file(graph_path, use_dimacs)?;
            let deg = analysis::degree_stats(&graph);
            let comps = analysis::connected_components(&graph);
            println!("vertices:            {}", graph.num_vertices());
            println!("edges:               {}", graph.num_edges());
            println!("distinct qualities:  {}", graph.num_distinct_qualities());
            println!("degree min/med/max:  {}/{}/{}", deg.min, deg.median, deg.max);
            println!("average degree:      {:.3}", deg.mean);
            println!("components:          {}", analysis::num_components(&comps));
            println!("largest component:   {}", analysis::largest_component_size(&comps));
            Ok(())
        }
        Some("query") => {
            let [_, graph_path, index_path, s, t, w] = positional[..] else {
                return Err("query requires <graph-file> <index-file> <s> <t> <w>".to_string());
            };
            let graph = read_graph_file(graph_path, use_dimacs)?;
            let index = load_index(index_path, &graph)?;
            let s: VertexId = s.parse().map_err(|_| format!("invalid vertex {s:?}"))?;
            let t: VertexId = t.parse().map_err(|_| format!("invalid vertex {t:?}"))?;
            let w: Quality = w.parse().map_err(|_| format!("invalid constraint {w:?}"))?;
            let n = graph.num_vertices();
            for v in [s, t] {
                if v as usize >= n {
                    return Err(format!("vertex {v} out of range (graph has vertices 0..{n})"));
                }
            }
            let answer = index.distance(s, t, w);
            match answer {
                Some(d) => println!("dist_{w}({s}, {t}) = {d}"),
                None => println!("dist_{w}({s}, {t}) = INF (no {w}-constrained path)"),
            }
            // Cross-check against the online oracle so the CLI doubles as a
            // verification tool.
            let oracle = wcsd::baselines::online::constrained_bfs(&graph, s, t, w);
            if oracle != answer {
                return Err("index answer disagrees with the online BFS oracle".to_string());
            }
            Ok(())
        }
        Some("serve") => {
            let [_, graph_path, index_path] = positional[..] else {
                return Err("serve requires <graph-file> <index-file-or-snapshot-dir>".to_string());
            };
            let graph = read_graph_file(graph_path, use_dimacs)?;
            // A directory (e.g. a feed snapshot dir) recovers the newest
            // *valid* generation, so a torn final write falls back to the
            // previous one.
            let index = if std::path::Path::new(index_path).is_dir() {
                let (flat, picked) = wcsd::server::load_newest_valid_snapshot(index_path.as_ref())?;
                println!("recovered newest valid snapshot {}", picked.display());
                flat
            } else {
                load_index(index_path, &graph)?
            };
            if index.num_vertices() != graph.num_vertices() {
                return Err(format!(
                    "index covers {} vertices but the graph has {}",
                    index.num_vertices(),
                    graph.num_vertices()
                ));
            }
            let index = std::sync::Arc::new(index);
            let mut config = ServerConfig::default();
            if let Some(port) = flag_value(args, "--port")? {
                config.port = port;
            }
            // --threads N caps the parts one BATCH is split into across
            // idle pool workers; it spawns no threads of its own.
            if let Some(threads) = flag_value(args, "--threads")? {
                config.batch_threads = threads;
            }
            if let Some(cache) = flag_value(args, "--cache-size")? {
                config.cache_capacity = cache;
            }
            // Admission control: offloaded work (BATCH/RELOAD) beyond this
            // many pending jobs is shed with the busy reply instead of
            // queueing without bound.
            if let Some(pending) = flag_value(args, "--max-pending")? {
                config.max_pending_jobs = pending;
            }
            // Observability wiring: requests at least this slow land in the
            // trace ring (`wcsd-cli metrics --recent`); `--no-metrics` turns
            // histogram/trace recording off (counters stay on for STATS).
            config.slow_query_ms = flag_value(args, "--slow-query-ms")?;
            config.metrics_enabled = !args.iter().any(|a| a == "--no-metrics");
            // The process-global registry, so core build/repair phases from
            // this process and the serving metrics share one METRICS scrape.
            config.registry = Some(wcsd_obs::global().clone());
            let stats = index.stats();
            let server = Server::bind_flat(index, config.clone())
                .map_err(|e| format!("cannot bind: {e}"))?;
            println!(
                "wcsd-server listening on {} ({} vertices, {} entries, BATCH split into at most {} parts, cache {})",
                server.local_addr(),
                stats.num_vertices,
                stats.total_entries,
                config.batch_threads,
                config.cache_capacity
            );
            let summary = server.run();
            println!(
                "shut down after {} connections, {} queries, {} batches ({} batched queries), cache hit rate {:.1}%",
                summary.connections,
                summary.queries,
                summary.batches,
                summary.batch_queries,
                100.0 * summary.hit_rate()
            );
            Ok(())
        }
        Some("client") => {
            let [_, addr, command @ ..] = &positional[..] else {
                return Err("client requires <host:port> <command> [args...]".to_string());
            };
            if command.is_empty() {
                return Err("client requires a command (query/within/stats/shutdown)".to_string());
            }
            // Only single-line request/reply commands are forwarded: BATCH
            // needs a body the one-shot roundtrip cannot send, and RELOAD
            // needs its path resolved on this side (`wcsd-cli reload` does
            // that; a raw forwarded path would resolve against the server's
            // working directory instead).
            let verb = command[0].to_ascii_uppercase();
            if !["QUERY", "WITHIN", "STATS", "SHUTDOWN"].contains(&verb.as_str()) {
                return Err(format!(
                    "unsupported client command {:?} (use query/within/stats/shutdown; \
                     for batch traffic use the loadgen binary, for reload use \
                     `wcsd-cli reload`)",
                    command[0]
                ));
            }
            let line = command.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(" ");
            let mut client = Client::connect_retry(addr.as_str(), Duration::from_secs(5))
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            let reply = client.roundtrip(&line)?;
            println!("{reply}");
            if reply.starts_with("ERR ") {
                return Err(wcsd::server::protocol::server_error(&reply));
            }
            Ok(())
        }
        Some("metrics") => {
            let [_, addr] = positional[..] else {
                return Err("metrics requires <host:port>".to_string());
            };
            let recent = args.iter().any(|a| a == "--recent");
            let mut client = Client::connect_retry(addr.as_str(), Duration::from_secs(5))
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            // Full scrape is Prometheus text exposition; `--recent` is the
            // trace-ring JSON (reload spans, slow-query log).
            let payload = client.metrics(recent)?;
            print!("{payload}");
            if !payload.ends_with('\n') {
                println!();
            }
            Ok(())
        }
        Some("reload") => {
            let [_, addr, index_path] = positional[..] else {
                return Err("reload requires <host:port> <index-file>".to_string());
            };
            // The server resolves the path on *its* filesystem; absolutize
            // (and existence-check) on this side first, since the loopback
            // deployment shares a machine but rarely a working directory.
            let absolute = std::fs::canonicalize(index_path)
                .map_err(|e| format!("cannot resolve {index_path}: {e}"))?;
            let absolute =
                absolute.to_str().ok_or_else(|| format!("non-UTF-8 path {absolute:?}"))?;
            // The binary protocol frames arbitrary paths (the text verb
            // cannot carry whitespace), so the admin front end speaks it.
            let mut client =
                Client::connect_retry_with(addr.as_str(), Duration::from_secs(5), Protocol::Binary)
                    .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            let info = client.reload(absolute)?;
            println!(
                "reloaded {index_path}: now serving generation {} ({} vertices, {} entries)",
                info.generation, info.vertices, info.entries
            );
            Ok(())
        }
        Some("partition") => {
            let [_, graph_path, out_dir] = positional[..] else {
                return Err("partition requires <graph-file> <out-dir>".to_string());
            };
            let graph = read_graph_file(graph_path, use_dimacs)?;
            let shards: usize = flag_value(args, "--shards")?.unwrap_or(2);
            // Every shard must hold a vertex, or the overlay would not decode.
            if shards == 0 || shards > graph.num_vertices().max(1) {
                return Err(format!(
                    "--shards must be between 1 and the vertex count ({})",
                    graph.num_vertices()
                ));
            }
            let seed: u64 = flag_value(args, "--seed")?.unwrap_or(0);
            let out = std::path::Path::new(out_dir);
            std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
            let start = std::time::Instant::now();
            let partition = Partition::build(&graph, shards, seed);
            let overlay = wcsd::core::overlay::OverlayIndex::build(&graph, &partition);
            let overlay_path = out.join("overlay.wcso");
            let overlay_bytes = overlay.encode();
            std::fs::write(&overlay_path, &overlay_bytes)
                .map_err(|e| format!("cannot write {}: {e}", overlay_path.display()))?;
            // One read-optimized WCIF snapshot per shard, over the shard's
            // intra-shard subgraph in *global* ids — any snapshot serves
            // directly with `wcsd-cli serve` and range-checks like the
            // unsharded index.
            for shard in 0..shards as u32 {
                let sub = partition.shard_subgraph(&graph, shard);
                let index = IndexBuilder::new().ordering(ordering).build(&sub);
                let flat = FlatIndex::from_index(&index);
                let path = out.join(format!("shard-{shard}.fidx"));
                std::fs::write(&path, flat.encode())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!(
                    "shard {shard}: {} vertices, {} intra-shard edges, {} label entries -> {}",
                    partition.shard_sizes()[shard as usize],
                    sub.num_edges(),
                    flat.total_entries(),
                    path.display()
                );
            }
            let boundary_share = overlay.num_boundary() as f64 / graph.num_vertices().max(1) as f64;
            println!(
                "partitioned {} vertices / {} edges into {shards} shard(s) in {:.2?}: \
                 {} boundary vertices ({:.1}% of the graph), {} cut edges, \
                 {} overlay edges, {} overlay bytes -> {}",
                graph.num_vertices(),
                graph.num_edges(),
                start.elapsed(),
                overlay.num_boundary(),
                100.0 * boundary_share,
                partition.cut_edges(&graph).count(),
                overlay.num_edges(),
                overlay_bytes.len(),
                overlay_path.display()
            );
            if boundary_share > 0.25 {
                eprintln!(
                    "warning: {:.0}% of the vertices are boundary vertices. A routed query \
                     costs work proportional to the boundary (one distance row per endpoint, \
                     one cell per boundary vertex); above 25% the sharded tier serves at a \
                     small fraction of the unsharded index's rate (RESULTS.md Exp 11). Use \
                     fewer shards, or do not shard this graph.",
                    100.0 * boundary_share
                );
            }
            Ok(())
        }
        Some("route") => {
            let [_, overlay_path, backends @ ..] = &positional[..] else {
                return Err("route requires <overlay-file> <backend-group> [<backend-group>...]"
                    .to_string());
            };
            if backends.is_empty() {
                return Err("route requires at least one backend group".to_string());
            }
            let data = std::fs::read(overlay_path)
                .map_err(|e| format!("cannot read {overlay_path}: {e}"))?;
            let overlay = wcsd::core::overlay::OverlayIndex::decode(&data)
                .map_err(|e| format!("corrupt overlay: {e}"))?;
            let mut config = RouterConfig::default();
            if let Some(port) = flag_value(args, "--port")? {
                config.port = port;
            }
            if let Some(ms) = flag_value::<u64>(args, "--backend-timeout-ms")? {
                config.backend_timeout = Duration::from_millis(ms);
            }
            if let Some(ms) = flag_value::<u64>(args, "--probe-interval-ms")? {
                config.probe_interval = Duration::from_millis(ms);
            }
            // Router-side answer and potential caches (0 = both off).
            if let Some(cache) = flag_value(args, "--cache-size")? {
                config.cache_capacity = cache;
            }
            config.metrics_enabled = !args.iter().any(|a| a == "--no-metrics");
            config.registry = Some(wcsd_obs::global().clone());
            let (vertices, boundary, edges) =
                (overlay.num_vertices(), overlay.num_boundary(), overlay.num_edges());
            let groups = parse_backend_groups(backends, overlay.num_shards())?;
            let replicas: usize = groups.iter().map(Vec::len).sum();
            let router = Router::bind(overlay, groups, config)
                .map_err(|e| format!("cannot bind router: {e}"))?;
            println!(
                "wcsd-router listening on {} ({} vertices across {} shard(s) / {} replica(s), \
                 {} boundary vertices, {} overlay edges)",
                router.local_addr(),
                vertices,
                backends.len(),
                replicas,
                boundary,
                edges
            );
            let summary = router.run();
            println!(
                "shut down after {} connections, {} queries, {} batches ({} batched queries)",
                summary.connections, summary.queries, summary.batches, summary.batch_queries
            );
            Ok(())
        }
        Some("feed") => {
            let [_, graph_path, updates_path, snapshot_dir] = positional[..] else {
                return Err("feed requires <graph-file> <updates-file> <snapshot-dir>".to_string());
            };
            let graph = read_graph_file(graph_path, use_dimacs)?;
            let text = std::fs::read_to_string(updates_path)
                .map_err(|e| format!("cannot read {updates_path}: {e}"))?;
            let updates = wcsd_bench::freshness::parse_update_stream(&text)?;
            let start = std::time::Instant::now();
            let builder = IndexBuilder::new().ordering(ordering);
            let mut dyn_idx = wcsd::core::dynamic::DynamicWcIndex::new(&graph, builder);
            if let Some(threshold) = flag_value::<f64>(args, "--repair-threshold")? {
                dyn_idx.set_repair_threshold(threshold);
            }
            println!(
                "built initial index for {} vertices / {} edges in {:.2?}; feeding {} updates",
                graph.num_vertices(),
                graph.num_edges(),
                start.elapsed(),
                updates.len()
            );
            let config = wcsd_bench::freshness::FeedConfig {
                batch_size: flag_value(args, "--batch")?.unwrap_or(16),
                addr: flag_value(args, "--addr")?,
                connect_timeout: Duration::from_secs(10),
            };
            let dataset = std::path::Path::new(graph_path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(graph_path);
            let (result, snapshots) = wcsd_bench::freshness::run_feed(
                dataset,
                &mut dyn_idx,
                &updates,
                std::path::Path::new(snapshot_dir),
                &config,
            )?;
            println!("{}", wcsd_bench::freshness::summary(&result));
            if let Some(last) = snapshots.last() {
                println!(
                    "{} snapshot(s) in {snapshot_dir}, latest {}",
                    snapshots.len(),
                    last.display()
                );
            }
            if let Some(json_path) = flag_value::<String>(args, "--json")? {
                std::fs::write(&json_path, wcsd_bench::report::to_json(&[result]))
                    .map_err(|e| format!("cannot write {json_path}: {e}"))?;
                println!("wrote JSON record -> {json_path}");
            }
            Ok(())
        }
        _ => Err("missing or unknown subcommand".to_string()),
    }
}

/// Parses `route`'s backend-group arguments into per-shard replica groups.
///
/// Each argument is either `host:port[,host:port...]` — assigned to shards
/// in positional order, skipping shards already pinned — or
/// `shard<N>=host:port[,host:port...]`, pinned to shard `N` regardless of
/// argument order. Every shard must end up with exactly one group.
fn parse_backend_groups(
    backends: &[&String],
    num_shards: usize,
) -> Result<Vec<Vec<String>>, String> {
    let mut groups: Vec<Option<Vec<String>>> = vec![None; num_shards];
    let mut cursor = 0usize;
    for arg in backends {
        let (slot, list) = match arg.split_once('=') {
            Some((key, list)) => {
                let n: usize =
                    key.strip_prefix("shard").and_then(|n| n.parse().ok()).ok_or_else(|| {
                        format!("bad backend group {arg:?}: expected shard<N>=host:port[,...]")
                    })?;
                if n >= num_shards {
                    return Err(format!(
                        "backend group {arg:?}: shard {n} out of range for {num_shards} shard(s)"
                    ));
                }
                (n, list)
            }
            None => {
                while cursor < num_shards && groups[cursor].is_some() {
                    cursor += 1;
                }
                if cursor >= num_shards {
                    return Err(format!(
                        "backend group {arg:?} has no shard left to serve \
                         (overlay has {num_shards} shard(s))"
                    ));
                }
                (cursor, arg.as_str())
            }
        };
        if groups[slot].is_some() {
            return Err(format!("shard {slot} was given two backend groups"));
        }
        let replicas: Vec<String> = list.split(',').map(|a| a.trim().to_string()).collect();
        if replicas.iter().any(String::is_empty) {
            return Err(format!("backend group {arg:?} contains an empty address"));
        }
        groups[slot] = Some(replicas);
    }
    groups
        .into_iter()
        .enumerate()
        .map(|(shard, g)| g.ok_or_else(|| format!("no backend group for shard {shard}")))
        .collect()
}

/// `stats <host:port>`: fetches a running server's counter snapshot and
/// prints it human-readably, or — with `--json` — as one JSON object (the
/// field names match the `STATS` wire keys).
fn server_stats(addr: &str, json: bool) -> Result<(), String> {
    let mut client = Client::connect_retry(addr, Duration::from_secs(5))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let s = client.stats()?;
    if json {
        let fields: [(&str, String); 15] = [
            ("vertices", s.vertices.to_string()),
            ("entries", s.entries.to_string()),
            ("generation", s.generation.to_string()),
            ("uptime_ms", s.uptime_ms.to_string()),
            ("connections", s.connections.to_string()),
            ("live_connections", s.live_connections.to_string()),
            ("text_connections", s.text_connections.to_string()),
            ("binary_connections", s.binary_connections.to_string()),
            ("reloads", s.reloads.to_string()),
            ("queries", s.queries.to_string()),
            ("batches", s.batches.to_string()),
            ("batch_queries", s.batch_queries.to_string()),
            ("shed", s.shed.to_string()),
            ("cache_hits", s.cache_hits.to_string()),
            ("cache_misses", s.cache_misses.to_string()),
        ];
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
        println!("{{\n{}\n}}", body.join(",\n"));
    } else {
        println!(
            "serving:             generation {} ({} vertices, {} entries)",
            s.generation, s.vertices, s.entries
        );
        println!("uptime:              {:.1}s", s.uptime_ms as f64 / 1e3);
        println!(
            "connections:         {} total ({} live, {} text, {} binary)",
            s.connections, s.live_connections, s.text_connections, s.binary_connections
        );
        println!("queries:             {}", s.queries);
        println!("batches:             {} ({} batched queries)", s.batches, s.batch_queries);
        println!("shed:                {}", s.shed);
        println!("reloads:             {}", s.reloads);
        println!(
            "cache:               {} hits / {} misses ({:.1}% hit rate)",
            s.cache_hits,
            s.cache_misses,
            100.0 * s.hit_rate()
        );
    }
    Ok(())
}

fn parse_ordering(args: &[String]) -> Result<OrderingStrategy, String> {
    match args.iter().position(|a| a == "--ordering") {
        None => Ok(OrderingStrategy::Hybrid),
        Some(i) => match args.get(i + 1).map(|s| s.as_str()) {
            Some("degree") => Ok(OrderingStrategy::Degree),
            Some("tree") => Ok(OrderingStrategy::TreeDecomposition),
            Some("hybrid") => Ok(OrderingStrategy::Hybrid),
            other => Err(format!("unknown ordering {other:?} (expected degree|tree|hybrid)")),
        },
    }
}

/// Loads a `WCIF` index snapshot and checks it matches the loaded graph.
fn load_index(path: &str, graph: &Graph) -> Result<FlatIndex, String> {
    let data = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let index = FlatIndex::decode(&data).map_err(|e| format!("corrupt index: {e}"))?;
    if index.num_vertices() != graph.num_vertices() {
        return Err(format!(
            "index covers {} vertices but the graph has {}",
            index.num_vertices(),
            graph.num_vertices()
        ));
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::run;

    #[test]
    fn build_commands_reject_threads() {
        for cmd in [
            &["build", "g.edges", "out.fidx", "--threads", "4"][..],
            &["feed", "g.edges", "u.updates", "snaps", "--threads", "2"],
            &["partition", "g.edges", "shards", "--threads", "2"],
        ] {
            let args: Vec<String> = cmd.iter().map(|a| a.to_string()).collect();
            let err = run(&args).unwrap_err();
            assert!(err.contains("--threads applies only to serve"), "{cmd:?}: {err}");
        }
    }
}
