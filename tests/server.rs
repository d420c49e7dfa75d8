//! End-to-end integration suite for the `wcsd-server` query service: a real
//! TCP server over a real index, driven by the protocol client, the bench
//! load generator, and raw sockets for the malformed-input cases.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wcsd::prelude::*;
use wcsd_bench::loadgen::{self, LoadgenConfig};
use wcsd_bench::QueryWorkload;
use wcsd_graph::generators::{barabasi_albert, QualityAssigner};
use wcsd_graph::Graph;
use wcsd_server::ServerSnapshot;

/// A small scale-free test graph with 4 quality levels.
fn test_graph() -> Graph {
    barabasi_albert(90, 3, &QualityAssigner::uniform(4), 23)
}

/// A second graph over the same vertex set whose distances differ from
/// [`test_graph`] (different wiring seed), for hot-reload tests.
fn other_graph() -> Graph {
    barabasi_albert(90, 3, &QualityAssigner::uniform(4), 71)
}

/// Writes a `WCIF` snapshot of a fresh index over `g` to a unique temp file
/// and returns (path, reference index).
fn write_snapshot(g: &Graph, tag: &str) -> (String, WcIndex) {
    static UNIQUE: AtomicUsize = AtomicUsize::new(0);
    let index = IndexBuilder::wc_index_plus().build(g);
    let path = std::env::temp_dir().join(format!(
        "wcsd-test-{}-{}-{tag}.fidx",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, FlatIndex::from_index(&index).encode()).expect("write snapshot");
    (path.to_str().expect("utf-8 temp path").to_string(), index)
}

/// Starts a server over a fresh index of `g` on an ephemeral port. Returns
/// the address, a reference copy of the index for cross-checking, and the
/// join handle that yields the final counter snapshot.
fn start_server(g: &Graph) -> (String, WcIndex, std::thread::JoinHandle<ServerSnapshot>) {
    let index = IndexBuilder::wc_index_plus().build(g);
    let reference = index.clone();
    let server = Server::bind(index, ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, reference, handle)
}

/// A config that can split a large `BATCH` into two parts on an idle pool,
/// whatever the host's core count.
fn two_worker_config() -> ServerConfig {
    ServerConfig { batch_workers: 2, batch_threads: 2, ..ServerConfig::default() }
}

/// `wcsd_batch_splits_total` as the server renders it right now.
fn batch_splits(client: &mut Client) -> u64 {
    let payload = client.metrics(false).expect("metrics scrape");
    wcsd_obs::scrape::Scrape::parse(&payload)
        .value("wcsd_batch_splits_total")
        .expect("split counter rendered") as u64
}

/// Opens a raw socket speaking the protocol by hand (for malformed input).
fn raw_connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("server reply");
    line.trim_end().to_string()
}

/// The acceptance-criteria round trip: `loadgen` traffic over several
/// connections agrees with direct `WcIndex::distance`, the cache hit rate is
/// reported, and `SHUTDOWN` terminates the server cleanly.
#[test]
fn serve_loadgen_round_trip() {
    let g = test_graph();
    let (addr, reference, handle) = start_server(&g);
    let workload = QueryWorkload::uniform(&g, 400, 7);

    // First pass: individual QUERY requests; second pass: BATCH requests
    // replaying the same workload, so the cache must hit.
    for (pass, batch_size) in [(0usize, 0usize), (1, 13)] {
        let config = LoadgenConfig { connections: 3, batch_size, ..Default::default() };
        let (result, answers) =
            loadgen::run_against(&addr, "ba-90", &workload, &config).expect("loadgen run");
        assert_eq!(result.errors, 0, "pass {pass} had errors");
        assert_eq!(result.queries, workload.len());
        assert!(result.throughput_qps > 0.0);
        for (&(s, t, w), answer) in workload.queries().iter().zip(&answers) {
            assert_eq!(*answer, reference.distance(s, t, w), "pass {pass}: Q({s},{t},{w})");
        }
        if pass == 1 {
            // Pass 0 cached (at most) 400 distinct keys, pass 1 replays all
            // 400 of them: cumulatively at least half of all lookups hit.
            assert!(
                result.cache_hit_rate >= 0.49,
                "replayed workload should mostly hit the cache, got {}",
                result.cache_hit_rate
            );
        }
    }

    let mut client = Client::connect(&*addr).unwrap();
    client.shutdown().expect("clean shutdown");
    let summary = handle.join().expect("server thread joins after SHUTDOWN");
    assert_eq!(summary.queries as usize, workload.len(), "single-query pass counted");
    assert_eq!(summary.batch_queries as usize, workload.len(), "batched pass counted");
    assert!(summary.cache_hits > 0);
}

/// The `WCIF` serving path end to end: encode a flat snapshot, decode it the
/// way `wcsd-cli serve` does, hand the `Arc<FlatIndex>` to `bind_flat`, and
/// check wire answers (point, batch, within, stats) against the nested index.
#[test]
fn serve_from_flat_snapshot() {
    let g = test_graph();
    let nested = IndexBuilder::wc_index_plus().build(&g);
    let snapshot = FlatIndex::from_index(&nested).encode();
    let loaded = std::sync::Arc::new(FlatIndex::decode(&snapshot).expect("snapshot decodes"));

    let server = Server::bind_flat(loaded, ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let workload = QueryWorkload::uniform(&g, 120, 11);
    let mut client = Client::connect(&*addr).unwrap();
    for &(s, t, w) in workload.queries() {
        assert_eq!(client.query(s, t, w), Ok(nested.distance(s, t, w)), "Q({s},{t},{w})");
    }
    let answers = client.batch(workload.queries()).expect("batch over flat index");
    for (&(s, t, w), answer) in workload.queries().iter().zip(&answers) {
        assert_eq!(*answer, nested.distance(s, t, w), "batched Q({s},{t},{w})");
    }
    // `within` runs uncached over the flat engine.
    let (s, t, w) = workload.queries()[0];
    if let Some(d) = nested.distance(s, t, w) {
        assert_eq!(client.within(s, t, w, d), Ok(true));
    }
    let stats = client.stats().expect("stats reply");
    assert_eq!(stats.vertices, g.num_vertices());
    assert_eq!(stats.entries, nested.total_entries());

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Malformed requests get `ERR` replies and never poison the connection.
#[test]
fn malformed_commands_are_rejected_not_fatal() {
    let g = test_graph();
    let (addr, reference, handle) = start_server(&g);
    let (mut reader, mut stream) = raw_connect(&addr);

    for bad in
        ["FOO 1 2 3", "QUERY 1", "QUERY a b c", "QUERY 1 2 3 4", "BATCH", "BATCH -5", "STATS x"]
    {
        writeln!(stream, "{bad}").unwrap();
        let reply = read_line(&mut reader);
        assert!(reply.starts_with("ERR "), "{bad:?} -> {reply:?}");
    }

    // The connection is still fully usable afterwards.
    writeln!(stream, "QUERY 0 1 1").unwrap();
    let reply = read_line(&mut reader);
    assert_eq!(
        wcsd_server::protocol::parse_distance_reply(&reply).unwrap(),
        reference.distance(0, 1, 1)
    );

    Client::connect(&*addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

/// Out-of-range vertex ids are rejected for QUERY, WITHIN, and inside BATCH.
#[test]
fn out_of_range_vertices_are_rejected() {
    let g = test_graph();
    let n = g.num_vertices() as u32;
    let (addr, _reference, handle) = start_server(&g);
    let mut client = Client::connect(&*addr).unwrap();

    assert!(client.query(n, 0, 1).unwrap_err().contains("out of range"));
    assert!(client.query(0, n + 7, 1).unwrap_err().contains("out of range"));
    assert!(client.within(n, 0, 1, 5).unwrap_err().contains("out of range"));
    let err = client.batch(&[(0, 1, 1), (n, 2, 1), (3, 4, 1)]).unwrap_err();
    assert!(err.contains("batch line 2"), "{err}");
    assert!(err.contains("out of range"), "{err}");

    // Oversized batches are rejected client-side before any bytes are sent,
    // so the connection cannot desynchronise.
    let oversized = vec![(0u32, 1u32, 1u32); wcsd_server::protocol::MAX_BATCH + 1];
    assert!(client.batch(&oversized).unwrap_err().contains("exceeds"));

    // In-range traffic still works on the same connection.
    assert!(client.query(0, 1, 1).is_ok());
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A `BATCH` big enough to split runs as two parts on an idle two-worker
/// pool, over both protocols: the answers come back in input order and equal
/// the in-process index with cache hits mixed in, and a bad vertex in either
/// part gets the same global `batch line N` error one part would give.
#[test]
fn split_batches_answer_in_order_with_global_line_errors() {
    let g = test_graph();
    let n = g.num_vertices() as u32;
    let index = IndexBuilder::wc_index_plus().build(&g);
    let flat = FlatIndex::from_index(&index);
    let server = Server::bind(index, two_worker_config()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    // 1 031 queries do not halve evenly: the parts hold lines 1–515 and
    // 516–1 031.
    let queries = QueryWorkload::uniform(&g, 1031, 61).queries().to_vec();
    let expected: Vec<Option<u32>> =
        queries.iter().map(|&(s, t, w)| flat.distance(s, t, w)).collect();
    let mut admin = Client::connect(&*addr).unwrap();
    // Warm every seventh key, so both parts mix cache hits with misses.
    for &(s, t, w) in queries.iter().step_by(7) {
        assert_eq!(admin.query(s, t, w), Ok(flat.distance(s, t, w)));
    }
    let range_error = |line: usize, v: u32| {
        format!("batch line {line}: vertex {v} out of range (index covers 0..{n})")
    };
    for proto in [Protocol::Text, Protocol::Binary] {
        let mut client = Client::connect_with(&*addr, proto).unwrap();
        let hits_before = client.stats().unwrap().cache_hits;
        assert_eq!(client.batch(&queries).unwrap(), expected, "{proto:?}");
        assert!(client.stats().unwrap().cache_hits > hits_before, "{proto:?}: no cache hit");

        let mut bad = queries.clone();
        bad[899].1 = n;
        let err = client.batch(&bad).unwrap_err();
        assert!(err.contains(&range_error(900, n)), "{proto:?}, second part: {err}");
        bad[99].0 = n + 3;
        let err = client.batch(&bad).unwrap_err();
        assert!(err.contains(&range_error(100, n + 3)), "{proto:?}, both parts: {err}");
        // The connection is intact after the errors.
        assert_eq!(client.batch(&queries[..3]).unwrap(), expected[..3], "{proto:?}");
    }
    assert_eq!(batch_splits(&mut admin), 2, "one split per protocol's answered batch");
    admin.shutdown().unwrap();
    handle.join().unwrap();
}

/// `wcsd_batch_splits_total` counts a batch once when an idle two-worker
/// pool splits it and leaves a small batch uncounted, and the slow-query log
/// says how each batch ran.
#[test]
fn split_counter_and_slow_query_log_show_how_a_batch_ran() {
    let g = test_graph();
    let index = IndexBuilder::wc_index_plus().build(&g);
    let config = ServerConfig { slow_query_ms: Some(0), ..two_worker_config() };
    let server = Server::bind(index, config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&*addr).unwrap();
    let queries = QueryWorkload::uniform(&g, 1024, 5).queries().to_vec();
    assert_eq!(batch_splits(&mut client), 0);
    assert_eq!(client.batch(&queries).unwrap().len(), 1024);
    assert_eq!(batch_splits(&mut client), 1, "a BATCH of 1024 splits once");
    assert_eq!(client.batch(&queries[..16]).unwrap().len(), 16);
    assert_eq!(batch_splits(&mut client), 1, "a BATCH of 16 runs inline");

    let trace = client.metrics(true).expect("recent trace");
    assert!(trace.contains("BATCH 1024 split into 2 parts"), "{trace}");
    assert!(trace.contains("BATCH 16 inline"), "{trace}");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// `BATCH 0` is a valid empty batch, answered with a bare `OK 0` header.
#[test]
fn batch_zero_is_valid_and_empty() {
    let g = test_graph();
    let (addr, reference, handle) = start_server(&g);
    let mut client = Client::connect(&*addr).unwrap();

    assert_eq!(client.batch(&[]).unwrap(), Vec::<Option<u32>>::new());
    // Framing is intact: the next request on the same connection works.
    assert_eq!(client.query(2, 3, 1).unwrap(), reference.distance(2, 3, 1));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Clients that disconnect mid-line (or mid-batch) must not take the server
/// down or corrupt other connections.
#[test]
fn mid_line_disconnect_is_harmless() {
    let g = test_graph();
    let (addr, reference, handle) = start_server(&g);

    {
        // Partial request line, no newline, then hard disconnect.
        let (_reader, mut stream) = raw_connect(&addr);
        stream.write_all(b"QUERY 1 2").unwrap();
        stream.flush().unwrap();
    }
    {
        // BATCH header promising more lines than the client ever sends.
        let (_reader, mut stream) = raw_connect(&addr);
        writeln!(stream, "BATCH 5").unwrap();
        writeln!(stream, "0 1 1").unwrap();
        stream.flush().unwrap();
    }

    {
        // A request line streamed without a newline is cut off at the
        // server's line cap with an ERR, instead of growing memory forever.
        let (mut reader, mut stream) = raw_connect(&addr);
        stream.write_all(&vec![b'Q'; 80 * 1024]).unwrap();
        stream.flush().unwrap();
        let reply = read_line(&mut reader);
        assert!(reply.starts_with("ERR request line exceeds"), "{reply:?}");
    }

    {
        // The cap also applies when the newline *did* arrive in the same
        // burst: an over-long terminated line is rejected, never parsed
        // (and never echoed back inside the ERR), and the connection drops.
        let (mut reader, mut stream) = raw_connect(&addr);
        let mut oversized = vec![b'Q'; 80 * 1024];
        oversized.push(b'\n');
        stream.write_all(&oversized).unwrap();
        stream.flush().unwrap();
        let reply = read_line(&mut reader);
        assert!(reply.starts_with("ERR request line exceeds"), "{reply:?}");
        assert!(reply.len() < 200, "the oversized line must not be echoed");
        let mut rest = String::new();
        assert_eq!(reader.read_to_string(&mut rest).unwrap(), 0, "connection closed");
    }

    // The server is still healthy for a well-behaved client.
    let mut client = Client::connect(&*addr).unwrap();
    assert_eq!(client.query(0, 5, 2).unwrap(), reference.distance(0, 5, 2));
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Many concurrent clients replaying overlapping workloads: every answer is
/// correct and the shared cache serves a substantial share of the lookups.
#[test]
fn concurrent_clients_share_the_cache() {
    let g = test_graph();
    let (addr, reference, handle) = start_server(&g);
    let workload = QueryWorkload::uniform(&g, 120, 99);
    let queries = workload.queries();

    // Warm the cache with one sequential pass so the concurrent phase below
    // has deterministic hit behaviour (no lockstep-miss races).
    let mut warm = Client::connect(&*addr).unwrap();
    for &(s, t, w) in queries {
        assert_eq!(warm.query(s, t, w).unwrap(), reference.distance(s, t, w));
    }

    std::thread::scope(|scope| {
        for _ in 0..6 {
            let addr = addr.clone();
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(&*addr).expect("connect");
                for &(s, t, w) in queries {
                    assert_eq!(client.query(s, t, w).unwrap(), reference.distance(s, t, w));
                }
            });
        }
    });

    let mut client = Client::connect(&*addr).unwrap();
    let stats = client.stats().unwrap();
    let lookups = stats.cache_hits + stats.cache_misses;
    assert_eq!(lookups as usize, 7 * queries.len(), "every query hit the cache layer");
    // After the warm pass every key is resident, so all 6 concurrent passes
    // hit: at most the warm pass' distinct keys ever miss.
    assert!(stats.hit_rate() > 0.5, "hit rate {}", stats.hit_rate());
    assert!(stats.cache_hits as usize >= 6 * queries.len());
    assert_eq!(stats.connections, 8); // warm + 6 workers + this stats client
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// `WITHIN` and `STATS` agree with the index served.
#[test]
fn within_and_stats_agree_with_index() {
    let g = test_graph();
    let (addr, reference, handle) = start_server(&g);
    let mut client = Client::connect(&*addr).unwrap();

    for &(s, t, w) in QueryWorkload::uniform(&g, 50, 3).queries() {
        for d in [0u32, 1, 3, u32::MAX] {
            assert_eq!(client.within(s, t, w, d).unwrap(), reference.within(s, t, w, d));
        }
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.vertices, reference.num_vertices());
    assert_eq!(stats.entries, reference.total_entries());
    assert_eq!(stats.queries, 200); // 50 workload queries x 4 bounds
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The binary protocol answers every verb identically to the text protocol,
/// and `STATS` reports the protocol mix.
#[test]
fn binary_protocol_matches_text() {
    let g = test_graph();
    let (addr, reference, handle) = start_server(&g);
    let mut text = Client::connect(&*addr).unwrap();
    let mut bin = Client::connect_with(&*addr, Protocol::Binary).unwrap();
    assert_eq!(bin.protocol(), Protocol::Binary);

    let workload = QueryWorkload::uniform(&g, 150, 17);
    for &(s, t, w) in workload.queries() {
        assert_eq!(bin.query(s, t, w), Ok(reference.distance(s, t, w)), "Q({s},{t},{w})");
    }
    // Batches (including an empty one) agree with the text client.
    assert_eq!(bin.batch(&[]).unwrap(), Vec::<Option<u32>>::new());
    assert_eq!(bin.batch(workload.queries()), text.batch(workload.queries()));
    let (s, t, w) = workload.queries()[0];
    for d in [0u32, 2, u32::MAX] {
        assert_eq!(bin.within(s, t, w, d), Ok(reference.within(s, t, w, d)));
    }
    // Errors surface with the same wording on both protocols.
    let n = g.num_vertices() as u32;
    let text_err = text.query(n, 0, 1).unwrap_err();
    let bin_err = bin.query(n, 0, 1).unwrap_err();
    assert_eq!(text_err, bin_err);
    assert!(bin.batch(&[(0, 1, 1), (n, 2, 1)]).unwrap_err().contains("batch line 2"));

    let stats = bin.stats().unwrap();
    assert!(stats.text_connections >= 1, "{stats:?}");
    assert!(stats.binary_connections >= 1, "{stats:?}");
    assert_eq!(stats.generation, 1);
    assert_eq!(stats.reloads, 0);
    assert!(stats.live_connections >= 2);

    // SHUTDOWN over the binary protocol is acknowledged with a BYE frame.
    bin.shutdown().unwrap();
    handle.join().unwrap();
}

/// Malformed binary frames: a bad version is fatal, an oversized length is
/// fatal, but a well-framed bad body only poisons that one request.
#[test]
fn binary_malformed_frames_are_contained() {
    let g = test_graph();
    let (addr, reference, handle) = start_server(&g);

    // Helper: read one reply frame body from a raw socket.
    fn read_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).ok()?;
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut body).ok()?;
        Some(body)
    }

    {
        // Wrong version byte: one ERR frame, then the connection closes.
        let mut stream = TcpStream::connect(&*addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&[0xBF, 0x7F]).unwrap();
        let body = read_frame(&mut stream).expect("version error frame");
        assert_eq!(body[0], 0xFF, "ERR opcode");
        assert!(String::from_utf8_lossy(&body[1..]).contains("version"));
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "connection closed");
    }
    {
        // A frame length beyond the cap is fatal.
        let mut stream = TcpStream::connect(&*addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&[0xBF, 0x01]).unwrap();
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let body = read_frame(&mut stream).expect("length error frame");
        assert_eq!(body[0], 0xFF);
        assert!(String::from_utf8_lossy(&body[1..]).contains("exceeds"));
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "connection closed");
    }
    {
        // An unknown opcode in a well-formed frame gets an ERR frame and the
        // connection stays usable.
        let mut stream = TcpStream::connect(&*addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&[0xBF, 0x01]).unwrap();
        stream.write_all(&2u32.to_le_bytes()).unwrap();
        stream.write_all(&[0x7E, 0x00]).unwrap();
        let body = read_frame(&mut stream).expect("opcode error frame");
        assert_eq!(body[0], 0xFF);
        assert!(String::from_utf8_lossy(&body[1..]).contains("opcode"));
        // A valid QUERY frame on the same connection still answers.
        let mut frame = vec![13, 0, 0, 0, 0x01];
        for v in [0u32, 1, 1] {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        stream.write_all(&frame).unwrap();
        let body = read_frame(&mut stream).expect("query reply");
        assert_eq!(body[0], 0x81, "DIST opcode");
        let expect = reference.distance(0, 1, 1);
        match expect {
            Some(d) => assert_eq!((body[1], &body[2..6]), (1, &d.to_le_bytes()[..])),
            None => assert_eq!(body[1], 0),
        }
    }

    Client::connect(&*addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

/// `RELOAD` swaps the served snapshot live: answers flip to the new index,
/// the epoch-tagged cache never serves stale answers, and `STATS` reports
/// the new generation, entry counts, and reload counter.
#[test]
fn reload_swaps_snapshot_and_keeps_cache_coherent() {
    let (path_a, index_a) = write_snapshot(&test_graph(), "a");
    let (path_b, index_b) = write_snapshot(&other_graph(), "b");
    let served = std::sync::Arc::new(
        FlatIndex::decode(&std::fs::read(&path_a).unwrap()).expect("snapshot decodes"),
    );
    let server = Server::bind_flat(served, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let workload = QueryWorkload::uniform(&test_graph(), 120, 31);
    let mut client = Client::connect(&*addr).unwrap();
    // Two passes so the second is answered from the cache.
    for _pass in 0..2 {
        for &(s, t, w) in workload.queries() {
            assert_eq!(client.query(s, t, w), Ok(index_a.distance(s, t, w)));
        }
    }
    assert!(client.stats().unwrap().cache_hits > 0, "second pass must hit the cache");

    let info = client.reload(&path_b).expect("reload");
    assert_eq!(info.generation, 2);
    assert_eq!(info.vertices as usize, index_b.num_vertices());
    assert_eq!(info.entries as usize, index_b.total_entries());

    // Every answer now comes from snapshot B — a stale cache would keep
    // serving A's answers for the warmed keys.
    for &(s, t, w) in workload.queries() {
        assert_eq!(client.query(s, t, w), Ok(index_b.distance(s, t, w)), "Q({s},{t},{w})");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.entries, index_b.total_entries());

    // Reload errors are reported and leave the old snapshot serving.
    assert!(client.reload("/nonexistent.fidx").unwrap_err().contains("cannot read"));
    assert_eq!(client.stats().unwrap().generation, 2);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A `WCIF` image with two entries of one multi-entry hub group swapped:
/// every size and offset still holds, only the Theorem-3 order within the
/// group is broken.
fn swapped_entries_image(index: &WcIndex) -> Vec<u8> {
    let flat = FlatIndex::from_index(index);
    let mut image = flat.encode().to_vec();
    // Header (7 words), entry and group offsets (n + 1 each), group keys
    // and starts (g each), then the entry arena in directory order.
    let (n, g) = (flat.num_vertices(), flat.num_groups());
    let arena = 7 + 2 * (n + 1) + 2 * g;
    // Arena position of the first entry of the vertex being searched.
    let mut start = 0;
    let pair = (0..n as VertexId)
        .find_map(|v| {
            let hubs: Vec<u32> = flat.label_entries(v).map(|entry| entry.hub).collect();
            let at = hubs.windows(2).position(|p| p[0] == p[1]).map(|i| start + i);
            start += hubs.len();
            at
        })
        .expect("the test graph has a multi-entry hub group");
    let at = 4 * (arena + pair);
    let (first, second) = image[at..at + 8].split_at_mut(4);
    first.swap_with_slice(second);
    image
}

/// Any file that is not a sound `WCIF` snapshot — a nested `WCIX` file, the
/// retired format, whose order also names vertex 5 of a 1-vertex index, and
/// a real image with two entries of a hub group swapped — is refused with
/// an `ERR` reply naming the fault instead of unwinding the pool worker
/// that loads it: with a single worker, a `BATCH` afterwards is still
/// answered, and the generation does not move.
#[test]
fn reload_of_corrupt_nested_snapshot_is_an_error() {
    let mut crafted = b"WCIX".to_vec();
    for word in [1u32, 0, 5] {
        crafted.extend_from_slice(&word.to_le_bytes());
    }
    let index = IndexBuilder::wc_index_plus().build(&test_graph());
    let inputs = [(crafted, "bad magic"), (swapped_entries_image(&index), "Theorem-3")];
    let config = ServerConfig { batch_workers: 1, ..ServerConfig::default() };
    let server = Server::bind(index.clone(), config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&*addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let queries = QueryWorkload::uniform(&test_graph(), 40, 5).queries().to_vec();
    for (i, (image, fault)) in inputs.iter().enumerate() {
        let path = std::env::temp_dir().join(format!("wcsd-test-{}-bad-{i}", std::process::id()));
        std::fs::write(&path, image).expect("write crafted snapshot");
        let err = client.reload(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("corrupt snapshot") && err.contains(fault), "{err}");
        let answers = client.batch(&queries).expect("the worker survived the reload");
        for (&(s, t, w), answer) in queries.iter().zip(&answers) {
            assert_eq!(*answer, index.distance(s, t, w), "Q({s},{t},{w})");
        }
        assert_eq!(client.stats().unwrap().generation, 1);
        std::fs::remove_file(&path).ok();
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Hot reload under load: concurrent connections stream batches across a
/// `RELOAD` to a different snapshot. No connection drops, and every batch
/// reply is consistent with exactly one snapshot (all-A or all-B, never
/// torn), even though the answers are served through the shared cache and
/// every batch, including the ones running at the swap, is split.
#[test]
fn reload_under_load_drops_nothing_and_tears_nothing() {
    let (path_a, index_a) = write_snapshot(&test_graph(), "a");
    let (path_b, index_b) = write_snapshot(&other_graph(), "b");
    let served = std::sync::Arc::new(
        FlatIndex::decode(&std::fs::read(&path_a).unwrap()).expect("snapshot decodes"),
    );
    // Two lanes of two parts each, plus a worker for the RELOAD: every batch
    // finds two idle workers when it arrives, so every batch splits.
    const LANES: usize = 2;
    let config = ServerConfig { batch_workers: 2 * LANES + 1, ..two_worker_config() };
    let server = Server::bind_flat(served, config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    // A probe batch whose answer vector differs between the snapshots, so a
    // torn (mixed-snapshot) reply is detectable — including one whose parts
    // answered from different snapshots.
    let probes: Vec<(u32, u32, u32)> =
        QueryWorkload::uniform(&test_graph(), 600, 47).queries().to_vec();
    let answers_a: Vec<Option<u32>> =
        probes.iter().map(|&(s, t, w)| index_a.distance(s, t, w)).collect();
    let answers_b: Vec<Option<u32>> =
        probes.iter().map(|&(s, t, w)| index_b.distance(s, t, w)).collect();
    assert_ne!(answers_a, answers_b, "snapshots must be distinguishable");

    let batches = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..LANES {
            let addr = &addr;
            let (probes, answers_a, answers_b) = (&probes, &answers_a, &answers_b);
            let batches = &batches;
            scope.spawn(move || {
                let mut client = Client::connect_with(
                    &**addr,
                    if worker % 2 == 0 { Protocol::Text } else { Protocol::Binary },
                )
                .expect("connect");
                // Stream until B has answered a few batches, so every lane
                // runs split batches before, across and after the swap.
                let deadline = Instant::now() + Duration::from_secs(30);
                let (mut round, mut from_b) = (0, 0);
                while from_b < 3 {
                    assert!(Instant::now() < deadline, "worker {worker}: B never answered");
                    let got = client.batch(probes).expect("no dropped connections");
                    batches.fetch_add(1, Ordering::Relaxed);
                    if got == *answers_b {
                        from_b += 1;
                    } else {
                        assert_eq!(got, *answers_a, "worker {worker} round {round}: torn batch");
                    }
                    round += 1;
                }
            });
        }
        // Swap mid-run, once split batches are streaming.
        let mut admin = Client::connect(&*addr).expect("admin connect");
        let deadline = Instant::now() + Duration::from_secs(10);
        while batch_splits(&mut admin) < 2 * LANES as u64 {
            assert!(Instant::now() < deadline, "too few batches were split");
            std::thread::sleep(Duration::from_millis(2));
        }
        let info = admin.reload(&path_b).expect("reload under load");
        assert_eq!(info.generation, 2);
    });
    // After the swap completes, fresh batches answer from B.
    let mut client = Client::connect(&*addr).unwrap();
    assert_eq!(client.batch(&probes).unwrap(), answers_b);
    let answered = batches.load(Ordering::Relaxed) as u64 + 1;
    assert_eq!(batch_splits(&mut client), answered, "every batch split");

    let stats = client.stats().unwrap();
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.reloads, 1);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The acceptance-criteria scale test: one server process holds >= 256
/// concurrent connections, answers on all of them, survives a `RELOAD` with
/// zero dropped connections, and answers on all of them again from the new
/// snapshot.
#[test]
fn sustains_256_connections_across_reload() {
    let (path_a, index_a) = write_snapshot(&test_graph(), "a");
    let (path_b, index_b) = write_snapshot(&other_graph(), "b");
    let served = std::sync::Arc::new(
        FlatIndex::decode(&std::fs::read(&path_a).unwrap()).expect("snapshot decodes"),
    );
    let server = Server::bind_flat(served, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    const CONNS: usize = 260;
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|i| {
            let proto = if i % 2 == 0 { Protocol::Text } else { Protocol::Binary };
            Client::connect_with(&*addr, proto).expect("connect")
        })
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let (s, t, w) = ((i % 90) as u32, ((i * 7 + 1) % 90) as u32, 1 + (i % 4) as u32);
        assert_eq!(client.query(s, t, w), Ok(index_a.distance(s, t, w)), "conn {i} pre-reload");
    }
    let mut admin = Client::connect(&*addr).unwrap();
    let stats = admin.stats().unwrap();
    assert!(
        stats.live_connections >= CONNS as u64,
        "expected >= {CONNS} live connections, got {}",
        stats.live_connections
    );

    admin.reload(&path_b).expect("reload with open connections");

    // Every pre-existing connection is still alive and now answers from B.
    for (i, client) in clients.iter_mut().enumerate() {
        let (s, t, w) = ((i % 90) as u32, ((i * 7 + 1) % 90) as u32, 1 + (i % 4) as u32);
        assert_eq!(client.query(s, t, w), Ok(index_b.distance(s, t, w)), "conn {i} post-reload");
    }
    let stats = admin.stats().unwrap();
    assert!(stats.live_connections > CONNS as u64, "no connection was dropped");
    assert_eq!(stats.generation, 2);

    drop(clients);
    admin.shutdown().unwrap();
    handle.join().unwrap();
}

/// A client that writes its requests and half-closes still gets every
/// reply (regression test — the first reactor cut dropped buffered complete
/// requests when the EOF arrived in the same read pass).
#[test]
fn half_close_still_gets_replies() {
    let g = test_graph();
    let (addr, reference, handle) = start_server(&g);

    let (mut reader, mut stream) = raw_connect(&addr);
    stream.write_all(b"QUERY 0 1 1\nQUERY 2 3 2\nWITHIN 0 1 1 9\n").unwrap();
    stream.flush().unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let first = read_line(&mut reader);
    assert_eq!(
        wcsd_server::protocol::parse_distance_reply(&first).unwrap(),
        reference.distance(0, 1, 1)
    );
    let second = read_line(&mut reader);
    assert_eq!(
        wcsd_server::protocol::parse_distance_reply(&second).unwrap(),
        reference.distance(2, 3, 2)
    );
    let third = read_line(&mut reader);
    assert!(third == "TRUE" || third == "FALSE");
    let mut rest = String::new();
    assert_eq!(reader.read_to_string(&mut rest).unwrap(), 0, "server closes after serving");

    // A fire-and-forget SHUTDOWN (write + immediate full close) must still
    // stop the server.
    let (_reader, mut stream) = raw_connect(&addr);
    stream.write_all(b"SHUTDOWN\n").unwrap();
    stream.flush().unwrap();
    drop(stream);
    handle.join().expect("server stops on fire-and-forget SHUTDOWN");
}

/// A batch in flight when another client sends SHUTDOWN is still answered:
/// shutdown drains the worker pool before hanging up (regression test —
/// the first reactor cut dropped in-flight replies on shutdown).
#[test]
fn shutdown_answers_in_flight_batches() {
    let g = test_graph();
    let (addr, reference, handle) = start_server(&g);

    // Large enough to still be computing when the SHUTDOWN lands.
    let queries: Vec<(u32, u32, u32)> =
        (0..60_000u32).map(|i| (i % 90, (i * 13 + 1) % 90, 1 + i % 4)).collect();
    let expected: Vec<Option<u32>> =
        queries.iter().map(|&(s, t, w)| reference.distance(s, t, w)).collect();
    std::thread::scope(|scope| {
        let (addr, queries, expected) = (&addr, &queries, &expected);
        scope.spawn(move || {
            let mut client = Client::connect(&**addr).expect("connect");
            let answers = client.batch(queries).expect("in-flight batch answered at shutdown");
            assert_eq!(answers, *expected);
        });
        std::thread::sleep(Duration::from_millis(100));
        Client::connect(addr.as_str()).unwrap().shutdown().expect("shutdown acknowledged");
    });
    handle.join().unwrap();
}

/// Disconnected clients are reaped: the live-connection gauge drops back
/// down and their slots are reused (regression test — the first reactor cut
/// leaked the bookkeeping for every closed connection).
#[test]
fn closed_connections_are_reaped() {
    let g = test_graph();
    let (addr, reference, handle) = start_server(&g);

    for round in 0..3 {
        let mut transient = Client::connect(&*addr).unwrap();
        assert_eq!(transient.query(0, 1, 1), Ok(reference.distance(0, 1, 1)), "round {round}");
        drop(transient);
    }
    let mut client = Client::connect(&*addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        if stats.live_connections == 1 {
            assert_eq!(stats.connections, 4, "3 transients + this client");
            break;
        }
        assert!(Instant::now() < deadline, "transient connections were never reaped: {stats:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A stalled server cannot hang a client forever: the configurable read
/// timeout errors the call out (the client-side mirror of the server's
/// write-stall deadline).
#[test]
fn client_read_timeout_prevents_hang() {
    // A "server" that accepts and then never replies.
    let gate = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = gate.local_addr().unwrap().to_string();
    let hold = std::thread::spawn(move || {
        let (stream, _) = gate.accept().unwrap();
        std::thread::sleep(Duration::from_secs(20));
        drop(stream);
    });

    let mut client = Client::connect(&*addr).unwrap();
    client.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    let started = Instant::now();
    let err = client.query(0, 1, 1).unwrap_err();
    assert!(started.elapsed() < Duration::from_secs(10), "timed out far too late");
    assert!(err.contains("receive failed"), "{err}");
    drop(client);
    // The holder thread exits on its own schedule; don't block the suite.
    drop(hold);
}

/// `METRICS` end to end on both protocols: per-verb counters appear with the
/// right values, the execute-phase histogram reconciles exactly with the verb
/// counters inside every single payload — including payloads scraped while
/// concurrent mixed-protocol load is in flight — and a quiesced scrape agrees
/// with `STATS`.
#[test]
fn metrics_reconcile_with_stats_under_concurrent_load() {
    use wcsd_obs::scrape::Scrape;

    /// sum over verbs of `wcsd_requests_total{proto=..}` must equal the
    /// execute-phase histogram count for that protocol in the same payload:
    /// both are mutated only on the reactor thread, and the payload renders
    /// before the in-flight METRICS request counts itself.
    fn assert_reconciled(scrape: &Scrape, proto: &str, context: &str) {
        let label = format!("proto=\"{proto}\"");
        let verbs = scrape.sum_matching("wcsd_requests_total", &[&label]);
        let execute =
            scrape.histogram("wcsd_request_phase_us", &[&label, "phase=\"execute\""]).count;
        assert_eq!(verbs as u64, execute, "{context}: proto={proto} verbs vs execute samples");
    }

    let g = test_graph();
    let (addr, reference, handle) = start_server(&g);
    let workload = QueryWorkload::uniform(&g, 80, 53);
    let queries = workload.queries();

    std::thread::scope(|scope| {
        for worker in 0..4 {
            let addr = &addr;
            let reference = &reference;
            scope.spawn(move || {
                let proto = if worker % 2 == 0 { Protocol::Text } else { Protocol::Binary };
                let mut client = Client::connect_with(&**addr, proto).expect("connect");
                for round in 0..10 {
                    for &(s, t, w) in queries {
                        assert_eq!(client.query(s, t, w).unwrap(), reference.distance(s, t, w));
                    }
                    assert_eq!(client.batch(queries).unwrap().len(), queries.len());
                    let (s, t, w) = queries[round % queries.len()];
                    client.within(s, t, w, 3).unwrap();
                }
            });
        }
        // Mid-load scrapes: each payload must already reconcile on both
        // protocols while the workers are hammering the reactor.
        let mut observer = Client::connect(&*addr).expect("observer connect");
        for i in 0..5 {
            let scrape = Scrape::parse(&observer.metrics(false).expect("mid-load scrape"));
            assert_reconciled(&scrape, "text", &format!("mid-load scrape {i}"));
            assert_reconciled(&scrape, "binary", &format!("mid-load scrape {i}"));
        }
    });

    // Quiesced: one final scrape, then STATS on the same connection.
    let mut client = Client::connect(&*addr).unwrap();
    let payload = client.metrics(false).expect("final scrape");
    let scrape = Scrape::parse(&payload);
    assert_reconciled(&scrape, "text", "quiesced scrape");
    assert_reconciled(&scrape, "binary", "quiesced scrape");

    // Every exercised verb shows up per protocol with the exact load counts:
    // 2 workers per protocol x 10 rounds x (80 queries + 1 batch + 1 within).
    for proto in ["text", "binary"] {
        let verb = |v: &str| {
            scrape
                .value(&format!("wcsd_requests_total{{proto=\"{proto}\",verb=\"{v}\"}}"))
                .unwrap_or(-1.0) as i64
        };
        assert_eq!(verb("query"), 1600, "proto={proto}");
        assert_eq!(verb("batch"), 20, "proto={proto}");
        assert_eq!(verb("within"), 20, "proto={proto}");
    }

    // The scrape agrees with STATS (no traffic ran in between): the snapshot
    // and the registry read the same underlying counters.
    let stats = client.stats().unwrap();
    assert_eq!(scrape.value("wcsd_queries_total").unwrap() as u64, stats.queries);
    assert_eq!(scrape.value("wcsd_batches_total").unwrap() as u64, stats.batches);
    assert_eq!(scrape.value("wcsd_batch_queries_total").unwrap() as u64, stats.batch_queries);
    assert_eq!(scrape.value("wcsd_reloads_total").unwrap() as u64, stats.reloads);
    assert_eq!(scrape.value("wcsd_generation").unwrap() as u64, stats.generation);
    assert_eq!(scrape.value("wcsd_index_entries").unwrap() as usize, stats.entries);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The slow-query log: with `slow_query_ms = 0` every inline query lands in
/// the trace ring, retrievable as `METRICS recent` JSON on both protocols.
#[test]
fn slow_query_log_captures_requests() {
    let g = test_graph();
    let index = IndexBuilder::wc_index_plus().build(&g);
    let reference = index.clone();
    let config = ServerConfig { slow_query_ms: Some(0), ..ServerConfig::default() };
    let server = Server::bind(index, config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&*addr).unwrap();
    assert_eq!(client.query(0, 1, 1).unwrap(), reference.distance(0, 1, 1));
    client.within(0, 1, 1, 5).unwrap();

    let trace = client.metrics(true).expect("recent trace");
    assert!(trace.contains("\"slow_query\""), "no slow_query events in {trace}");
    assert!(trace.contains("QUERY 0 1 1"), "request detail missing in {trace}");

    // The binary protocol returns the same ring.
    let mut bin = Client::connect_with(&*addr, Protocol::Binary).unwrap();
    let trace = bin.metrics(true).expect("recent trace over binary");
    assert!(trace.contains("\"slow_query\""));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// `--no-metrics` semantics: counters (and therefore `STATS` and the verb
/// counters in `METRICS`) stay live, but phase histograms record nothing.
#[test]
fn disabled_metrics_keep_counters_but_not_histograms() {
    use wcsd_obs::scrape::Scrape;

    let g = test_graph();
    let index = IndexBuilder::wc_index_plus().build(&g);
    let config = ServerConfig { metrics_enabled: false, ..ServerConfig::default() };
    let server = Server::bind(index, config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&*addr).unwrap();
    for i in 0..10u32 {
        client.query(i, (i + 1) % 10, 1).unwrap();
    }
    let scrape = Scrape::parse(&client.metrics(false).unwrap());
    assert_eq!(
        scrape.value("wcsd_requests_total{proto=\"text\",verb=\"query\"}"),
        Some(10.0),
        "verb counters stay on without metrics"
    );
    assert_eq!(scrape.value("wcsd_queries_total"), Some(10.0));
    let execute =
        scrape.histogram("wcsd_request_phase_us", &["proto=\"text\"", "phase=\"execute\""]);
    assert_eq!(execute.count, 0, "no histogram samples with metrics disabled");
    assert_eq!(client.stats().unwrap().queries, 10);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The full freshness pipeline end to end: a live server, a feed run that
/// applies mixed updates, settles each batch with one label rebuild, writes
/// generation-numbered snapshots, and hot-swaps each one via `RELOAD` — after
/// which the served answers match the live dynamic index, the generation
/// advanced once per batch, and a deleted edge's answer actually changed on
/// the wire.
#[test]
fn feed_pipeline_updates_are_servable() {
    use wcsd_bench::freshness::{run_feed, EdgeUpdate, FeedConfig};
    use wcsd_core::dynamic::DynamicWcIndex;

    let g = test_graph();
    let mut dyn_idx = DynamicWcIndex::new(&g, IndexBuilder::wc_index_plus());
    let server =
        Server::bind_flat(dyn_idx.freeze(), ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    // Pick a served edge and remember its pre-deletion wire answer.
    let e = g.edges().next().expect("test graph has edges");
    let mut probe = Client::connect(&*addr).unwrap();
    let before = probe.query(e.u, e.v, e.quality).unwrap();
    assert_eq!(before, Some(1), "an edge answers its own quality level in one hop");

    // A vertex not adjacent to 0, so the add below is a genuine new edge.
    let far = (1..90u32).rev().find(|&v| g.edge_quality(0, v).is_none()).expect("non-neighbor");
    let updates = vec![
        EdgeUpdate::Add { u: 0, v: far, q: 4 },
        EdgeUpdate::Remove { u: e.u, v: e.v },
        EdgeUpdate::Add {
            u: 5,
            v: (6..90u32).rev().find(|&v| g.edge_quality(5, v).is_none()).expect("non-neighbor"),
            q: 2,
        },
        EdgeUpdate::Remove { u: 0, v: far },
    ];
    let dir = std::env::temp_dir().join(format!("wcsd-feed-e2e-{}", std::process::id()));
    let config = FeedConfig { batch_size: 2, addr: Some(addr.clone()), ..Default::default() };
    let (result, snapshots) =
        run_feed("ba-90", &mut dyn_idx, &updates, &dir, &config).expect("feed run");

    assert_eq!(result.batches, 2);
    assert_eq!(result.adds, 2);
    assert_eq!(result.removes, 2);
    assert_eq!(result.repairs, 2);
    assert!(result.affected_hubs > 0);
    assert_eq!(result.final_generation, 3, "startup generation 1 + one reload per batch");
    assert!(result.freshness_p50_us > 0.0);
    assert!(result.freshness_p50_us <= result.freshness_max_us);
    assert_eq!(snapshots.len(), 2);

    // The deleted edge's answer changed on the wire, and the served snapshot
    // now agrees with the live dynamic index everywhere.
    let after = probe.query(e.u, e.v, e.quality).unwrap();
    assert_ne!(after, before, "deletion must be servable after the reload");
    assert_eq!(after, dyn_idx.distance(e.u, e.v, e.quality));
    for s in (0..90).step_by(3) {
        for t in (0..90).step_by(4) {
            for w in 1..=4 {
                assert_eq!(probe.query(s, t, w), Ok(dyn_idx.distance(s, t, w)), "Q({s},{t},{w})");
            }
        }
    }
    let stats = probe.stats().unwrap();
    assert_eq!(stats.generation, 3);
    assert_eq!(stats.reloads, 2);

    probe.shutdown().unwrap();
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
