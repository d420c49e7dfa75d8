//! The boundary-vertex overlay: composing per-shard distance answers into
//! exact whole-graph answers.
//!
//! ## Why this is exact
//!
//! Fix a partition of the vertices into shards (see `wcsd_graph::partition`)
//! and any `w`-constrained shortest path `P` from `s` to `t`. Every edge of
//! `P` is either *intra-shard* or a *cut edge*; every cut edge's endpoints
//! are boundary vertices. So `P` decomposes uniquely into
//!
//! 1. a prefix inside `shard(s)` from `s` to the first boundary vertex `b₁`
//!    it visits before leaving the shard (empty when `P` never leaves),
//! 2. an alternation of maximal intra-shard segments *between boundary
//!    vertices* and single cut edges,
//! 3. a suffix inside `shard(t)` from a boundary vertex `b₂` to `t`.
//!
//! Each intra-shard segment from `b₁` to `b₂` with all edge qualities `≥ w`
//! has length `≥ d_shard(b₁, b₂ | w)`, the constrained distance *within the
//! shard subgraph*. The overlay graph therefore has one node per boundary
//! vertex and two kinds of edges:
//!
//! * every **cut edge** `(u, v, δ)` as an overlay edge of length 1 usable
//!   when `w ≤ δ`, and
//! * for each shard and each boundary pair `(b₁, b₂)` in it, the **profile**
//!   of `d_shard(b₁, b₂ | ·)`: a step function of `w` whose breakpoints are
//!   the shard's distinct quality values. Each step `(d, ℓ)` — distance `d`
//!   achievable with every edge quality `≥ ℓ`, and `ℓ` maximal for that `d`
//!   — becomes an overlay edge of length `d` usable when `w ≤ ℓ`.
//!
//! Substituting each segment by its profile edge can only shorten `P`, and
//! every overlay walk expands back into a real path of the same length and
//! quality, so
//!
//! ```text
//! Q(s, t, w) = min( d_shard(s,t|w) if shard(s) = shard(t),
//!                   min over b₁ ∈ B(shard(s)), b₂ ∈ B(shard(t)) of
//!                       d_shard(s,b₁|w) + overlay_w(b₁,b₂) + d_shard(b₂,t|w) )
//! ```
//!
//! which is exactly what [`OverlayIndex::plan`] (which per-shard distances to
//! fetch) and [`OverlayIndex::merge`] (a quality-filtered Dijkstra over the
//! overlay) compute. The router in `wcsd-server` evaluates the plan against
//! remote backends over the binary protocol; [`ShardedIndex`] evaluates the
//! same plan against in-process [`FlatIndex`] shards and is the reference
//! the parity suite checks the router against.
//!
//! ## The separable form
//!
//! The composition above is a 2-hop label query with the boundary vertices
//! as hubs, so it splits per endpoint. [`OverlayIndex::potentials`] runs the
//! overlay Dijkstra seeded with one endpoint's shard row `d_shard(v, b | w)`
//! and returns `P(v,w)[b] = d_G(v, b | w)` for **every** boundary vertex `b`
//! — whole-graph distances, by the decomposition above applied to a path that
//! ends at a boundary vertex (its suffix is a profile edge). Then
//!
//! ```text
//! Q(s, t, w) = min( direct, min over b of P(s,w)[b] + P(t,w)[b] )
//! ```
//!
//! ([`OverlayIndex::compose`]). For any boundary `b` the sum is the length
//! of a real walk `s → b → t`, so it is `≥ d_G(s, t | w)`, with equality at
//! every boundary vertex on a shortest path. A cross-shard path crosses a
//! cut edge and so always has one; a same-shard shortest path that has none
//! never leaves the shard and is the direct term `d_shard(s, t | w)`. `P`
//! depends on one endpoint only, which is what lets the router cache it.
//!
//! ## Snapshot format
//!
//! [`OverlayIndex::encode`] writes the versioned `WCSO` snapshot: magic,
//! header counts, the vertex→shard assignment, the sorted boundary ids and
//! the overlay CSR, all as little-endian `u32` words. `decode` validates
//! structure (shard bounds, sorted boundary, offset monotonicity, target
//! range) and never panics on corrupt input.

use crate::flat::FlatIndex;
use crate::index::QueryImpl;
use std::collections::VecDeque;
use std::sync::Arc;
use wcsd_graph::partition::Partition;
use wcsd_graph::{Distance, Graph, Quality, VertexId, INF_DIST};

/// Magic bytes of the overlay snapshot format.
pub const WCSO_MAGIC: &[u8; 4] = b"WCSO";
/// Version written by [`OverlayIndex::encode`].
pub const WCSO_VERSION: u32 = 1;
const WCSO_HEADER: usize = 4 + 4 * 5;

/// The boundary-vertex overlay index: the partition assignment plus a
/// quality-annotated multigraph over the boundary vertices whose
/// `w`-filtered shortest paths compose per-shard answers exactly (see the
/// module docs for the argument).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayIndex {
    num_shards: u32,
    /// `assignment[v]` is the shard of vertex `v`; length = vertex count.
    assignment: Vec<u32>,
    /// Sorted global ids of the boundary vertices (the overlay's nodes).
    boundary: Vec<VertexId>,
    /// `boundary_pos[v]` is `v`'s index in `boundary`, or `u32::MAX`.
    boundary_pos: Vec<u32>,
    /// Boundary vertices of each shard, ascending (derived, not encoded).
    shard_boundary: Vec<Vec<VertexId>>,
    /// CSR offsets into the edge arrays, one slice per boundary node.
    offsets: Vec<u32>,
    /// Overlay edge targets (indexes into `boundary`).
    targets: Vec<u32>,
    /// Overlay edge lengths.
    dists: Vec<Distance>,
    /// Maximum constraint `w` under which each edge is usable (`w ≤ qual`).
    quals: Vec<Quality>,
}

/// One backend `BATCH` of a [`ScatterPlan`]: the shard to ask and the
/// `(s, t, w)` triples to ask it.
pub type ShardBatch = (u32, Vec<(VertexId, VertexId, Quality)>);

/// The per-shard fetches one query needs: one `BATCH` per involved shard.
/// Produced by [`OverlayIndex::plan`], consumed by [`OverlayIndex::merge`]
/// with the answers filled in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterPlan {
    /// `(shard, queries)` — each entry is one backend `BATCH`. At most two
    /// entries; exactly one when source and target share a shard.
    pub shards: Vec<ShardBatch>,
    w: Quality,
    /// `shard(s)`: its boundary carries one `(s, b, w)` per entry.
    source_shard: u32,
    /// `shard(t)`: its boundary carries one `(b, t, w)` per entry.
    target_shard: u32,
}

impl ScatterPlan {
    /// Total number of per-shard queries the plan fans out.
    pub fn fanout_queries(&self) -> usize {
        self.shards.iter().map(|(_, qs)| qs.len()).sum()
    }
}

impl OverlayIndex {
    /// Builds the overlay for `g` under `partition`: cut edges plus, per
    /// shard, the full `(distance, max-quality)` profile of every boundary
    /// pair, computed by one constrained BFS per (boundary vertex, distinct
    /// shard quality) over the shard subgraph.
    pub fn build(g: &Graph, partition: &Partition) -> Self {
        assert_eq!(partition.num_vertices(), g.num_vertices());
        let n = g.num_vertices();
        let k = partition.num_shards();
        let assignment = partition.assignment().to_vec();
        let boundary: Vec<VertexId> = partition.boundary_vertices().to_vec();
        let mut boundary_pos = vec![u32::MAX; n];
        for (i, &b) in boundary.iter().enumerate() {
            boundary_pos[b as usize] = i as u32;
        }

        // (from_pos, to_pos, dist, max usable w) — directed; both directions
        // are pushed explicitly.
        let mut edges: Vec<(u32, u32, Distance, Quality)> = Vec::new();

        for e in partition.cut_edges(g) {
            let (u, v) = (boundary_pos[e.u as usize], boundary_pos[e.v as usize]);
            edges.push((u, v, 1, e.quality));
            edges.push((v, u, 1, e.quality));
        }

        for shard in 0..k as u32 {
            let in_shard: Vec<VertexId> =
                boundary.iter().copied().filter(|&b| assignment[b as usize] == shard).collect();
            if in_shard.len() < 2 {
                continue;
            }
            let sub = partition.shard_subgraph(g, shard);
            let levels = sub.distinct_qualities();
            // For each boundary source, distances at every level, highest
            // (strictest) level first: a profile step is recorded the first
            // time its distance appears, which pins the *maximum* usable w.
            for &b1 in &in_shard {
                let p1 = boundary_pos[b1 as usize];
                let mut seen: Vec<Option<Distance>> = vec![None; in_shard.len()];
                for &level in levels.iter().rev() {
                    let dist = constrained_bfs_from(&sub, b1, level);
                    for (j, &b2) in in_shard.iter().enumerate() {
                        if b2 == b1 {
                            continue;
                        }
                        if let Some(d) = dist[b2 as usize] {
                            if seen[j] != Some(d) {
                                seen[j] = Some(d);
                                edges.push((p1, boundary_pos[b2 as usize], d, level));
                            }
                        }
                    }
                }
            }
        }

        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0u32; boundary.len() + 1];
        for &(from, _, _, _) in &edges {
            offsets[from as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let targets = edges.iter().map(|e| e.1).collect();
        let dists = edges.iter().map(|e| e.2).collect();
        let quals = edges.iter().map(|e| e.3).collect();

        let shard_boundary = derive_shard_boundary(k, &assignment, &boundary);
        Self {
            num_shards: k as u32,
            assignment,
            boundary,
            boundary_pos,
            shard_boundary,
            offsets,
            targets,
            dists,
            quals,
        }
    }

    /// Number of shards the overlay composes across.
    pub fn num_shards(&self) -> usize {
        self.num_shards as usize
    }

    /// Number of vertices of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// Number of boundary vertices (overlay nodes).
    pub fn num_boundary(&self) -> usize {
        self.boundary.len()
    }

    /// Number of overlay edges (cut edges + profile steps, directed).
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The shard of vertex `v`.
    pub fn shard_of(&self, v: VertexId) -> u32 {
        self.assignment[v as usize]
    }

    /// The vertex→shard assignment array.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Sorted boundary vertices of `shard`.
    pub fn shard_boundary(&self, shard: u32) -> &[VertexId] {
        &self.shard_boundary[shard as usize]
    }

    /// Computes the per-shard fetches needed to answer `Q(s, t, w)`.
    ///
    /// Panics if `s` or `t` is out of range — callers (router, sharded
    /// index) range-check first, exactly like the single-shard server does.
    pub fn plan(&self, s: VertexId, t: VertexId, w: Quality) -> ScatterPlan {
        let ss = self.shard_of(s);
        let ts = self.shard_of(t);
        let source_boundary = self.shard_boundary(ss);
        let target_boundary = self.shard_boundary(ts);
        let mut shards = Vec::with_capacity(2);
        if ss == ts {
            let mut qs = Vec::with_capacity(1 + source_boundary.len() + target_boundary.len());
            qs.push((s, t, w));
            qs.extend(source_boundary.iter().map(|&b| (s, b, w)));
            qs.extend(target_boundary.iter().map(|&b| (b, t, w)));
            shards.push((ss, qs));
        } else {
            shards.push((ss, source_boundary.iter().map(|&b| (s, b, w)).collect()));
            shards.push((ts, target_boundary.iter().map(|&b| (b, t, w)).collect()));
        }
        ScatterPlan { shards, w, source_shard: ss, target_shard: ts }
    }

    /// Merges per-shard answers back into the exact whole-graph answer:
    /// the direct same-shard answer (when present) against the minimum over
    /// boundary compositions — the source's [`Self::potentials`] plus the
    /// target-side shard distances.
    ///
    /// `answers[i]` must hold the backend's reply to `plan.shards[i]`, in
    /// order; a length mismatch is an error (a torn reply, never a wrong
    /// answer).
    pub fn merge(
        &self,
        plan: &ScatterPlan,
        answers: &[Vec<Option<Distance>>],
    ) -> Result<Option<Distance>, String> {
        if answers.len() != plan.shards.len() {
            return Err(format!(
                "scatter produced {} answer sets, expected {}",
                answers.len(),
                plan.shards.len()
            ));
        }
        for (set, (shard, qs)) in answers.iter().zip(&plan.shards) {
            if set.len() != qs.len() {
                return Err(format!(
                    "shard {shard} answered {} of {} queries",
                    set.len(),
                    qs.len()
                ));
            }
        }
        let nb = self.shard_boundary(plan.source_shard).len();
        let (direct, source_dists, target_dists) = if plan.source_shard == plan.target_shard {
            let set = &answers[0];
            (set[0], &set[1..1 + nb], &set[1 + nb..])
        } else {
            (None, &answers[0][..], &answers[1][..])
        };
        let reached = self.potentials(plan.source_shard, plan.w, source_dists)?;
        let mut best = direct.unwrap_or(INF_DIST);
        for (&b, &dt) in self.shard_boundary(plan.target_shard).iter().zip(target_dists) {
            let via = reached[self.boundary_pos[b as usize] as usize];
            best = best.min(via.saturating_add(dt.unwrap_or(INF_DIST)));
        }
        Ok((best != INF_DIST).then_some(best))
    }

    /// One endpoint's *boundary potentials*: `P(v, w)[i] = d_G(v, bᵢ | w)`,
    /// the whole-graph constrained distance from `v` to every overlay node
    /// ([`INF_DIST`] = unreached), by a `w`-filtered multi-source Dijkstra
    /// over the overlay seeded with `row` — `d_shard(v, b | w)` for each `b`
    /// of [`Self::shard_boundary`]`(shard)`, in order, where `shard` is `v`'s.
    /// A row of the wrong length (a torn reply) is an error.
    pub fn potentials(
        &self,
        shard: u32,
        w: Quality,
        row: &[Option<Distance>],
    ) -> Result<Vec<Distance>, String> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let seeds = self
            .shard_boundary
            .get(shard as usize)
            .ok_or_else(|| format!("shard {shard} out of range for {} shards", self.num_shards))?;
        if row.len() != seeds.len() {
            return Err(format!(
                "shard {shard} row holds {} distances for {} boundary vertices",
                row.len(),
                seeds.len()
            ));
        }
        let mut dist = vec![INF_DIST; self.boundary.len()];
        let mut heap = BinaryHeap::new();
        for (&b, &d) in seeds.iter().zip(row) {
            if let Some(d) = d {
                let p = self.boundary_pos[b as usize];
                dist[p as usize] = d;
                heap.push(Reverse((d, p)));
            }
        }
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            let (lo, hi) =
                (self.offsets[u as usize] as usize, self.offsets[u as usize + 1] as usize);
            for i in lo..hi {
                if self.quals[i] < w {
                    continue;
                }
                let v = self.targets[i];
                let nd = d.saturating_add(self.dists[i]);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        Ok(dist)
    }

    /// Composes two endpoints' [`Self::potentials`] rows (both at the
    /// query's `w`) and the same-shard `direct` answer, when there is one,
    /// into `Q(s, t, w)` — see "The separable form" in the module docs.
    /// Branch-free like `core::kernel`: [`INF_DIST`] saturates through the
    /// add and loses every `min`.
    pub fn compose(
        direct: Option<Distance>,
        from_s: &[Distance],
        from_t: &[Distance],
    ) -> Option<Distance> {
        assert_eq!(from_s.len(), from_t.len(), "potential rows of one overlay");
        let best = from_s
            .iter()
            .zip(from_t)
            .fold(direct.unwrap_or(INF_DIST), |best, (&a, &b)| best.min(a.saturating_add(b)));
        (best != INF_DIST).then_some(best)
    }

    /// Serializes the overlay into the versioned `WCSO` snapshot.
    pub fn encode(&self) -> bytes::Bytes {
        use bytes::BufMut;
        let n = self.assignment.len();
        let b = self.boundary.len();
        let e = self.targets.len();
        let total = WCSO_HEADER + 4 * (n + b + (b + 1) + 3 * e);
        let mut buf = bytes::BytesMut::with_capacity(total);
        buf.put_slice(WCSO_MAGIC);
        buf.put_u32_le(WCSO_VERSION);
        buf.put_u32_le(self.num_shards);
        buf.put_u32_le(n as u32);
        buf.put_u32_le(b as u32);
        buf.put_u32_le(e as u32);
        for section in [&self.assignment, &self.boundary, &self.offsets, &self.targets] {
            for &word in section.iter() {
                buf.put_u32_le(word);
            }
        }
        for &word in &self.dists {
            buf.put_u32_le(word);
        }
        for &word in &self.quals {
            buf.put_u32_le(word);
        }
        buf.freeze()
    }

    /// Decodes a `WCSO` snapshot, validating structure. Corrupt or truncated
    /// input is rejected with an error, never a panic.
    pub fn decode(data: &[u8]) -> Result<Self, String> {
        if data.len() < WCSO_HEADER {
            return Err("overlay snapshot truncated before header".to_string());
        }
        if &data[..4] != WCSO_MAGIC {
            return Err("not a WCSO overlay snapshot (bad magic)".to_string());
        }
        let word = |i: usize| u32::from_le_bytes(data[4 + 4 * i..8 + 4 * i].try_into().unwrap());
        let version = word(0);
        if version != WCSO_VERSION {
            return Err(format!("unsupported WCSO version {version}"));
        }
        let num_shards = word(1);
        let n = word(2) as usize;
        let b = word(3) as usize;
        let e = word(4) as usize;
        let words = n
            .checked_add(b)
            .and_then(|x| x.checked_add(b + 1))
            .and_then(|x| x.checked_add(3usize.checked_mul(e)?))
            .ok_or("overlay snapshot header overflows")?;
        let expected = WCSO_HEADER + 4 * words;
        if data.len() != expected {
            return Err(format!(
                "overlay snapshot is {} bytes, header announces {expected}",
                data.len()
            ));
        }
        let mut cursor = WCSO_HEADER;
        let mut take = |count: usize| {
            let out: Vec<u32> = data[cursor..cursor + 4 * count]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            cursor += 4 * count;
            out
        };
        let assignment = take(n);
        let boundary = take(b);
        let offsets = take(b + 1);
        let targets = take(e);
        let dists = take(e);
        let quals = take(e);

        if num_shards == 0 && n > 0 {
            return Err("overlay snapshot has vertices but zero shards".to_string());
        }
        // Every shard of a partition this overlay came from holds a vertex
        // (or the graph is empty), and the per-shard boundary lists are
        // allocated from this count: bound it before trusting it.
        if num_shards as usize > n.max(1) {
            return Err(format!("overlay snapshot has {num_shards} shards for {n} vertices"));
        }
        if assignment.iter().any(|&s| s >= num_shards) {
            return Err("overlay assignment names an unknown shard".to_string());
        }
        if boundary.windows(2).any(|w| w[0] >= w[1]) {
            return Err("overlay boundary ids are not strictly ascending".to_string());
        }
        if boundary.iter().any(|&v| v as usize >= n) {
            return Err("overlay boundary id out of vertex range".to_string());
        }
        if offsets.first() != Some(&0) && b > 0 {
            return Err("overlay CSR does not start at 0".to_string());
        }
        if b == 0 && e > 0 {
            return Err("overlay has edges but no boundary vertices".to_string());
        }
        if b > 0 {
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err("overlay CSR offsets are not monotone".to_string());
            }
            if offsets[b] as usize != e {
                return Err("overlay CSR does not cover all edges".to_string());
            }
        }
        if targets.iter().any(|&t| t as usize >= b) {
            return Err("overlay edge target out of boundary range".to_string());
        }

        let mut boundary_pos = vec![u32::MAX; n];
        for (i, &v) in boundary.iter().enumerate() {
            boundary_pos[v as usize] = i as u32;
        }
        let shard_boundary = derive_shard_boundary(num_shards as usize, &assignment, &boundary);
        Ok(Self {
            num_shards,
            assignment,
            boundary,
            boundary_pos,
            shard_boundary,
            offsets,
            targets,
            dists,
            quals,
        })
    }
}

fn derive_shard_boundary(
    k: usize,
    assignment: &[u32],
    boundary: &[VertexId],
) -> Vec<Vec<VertexId>> {
    let mut out = vec![Vec::new(); k];
    for &b in boundary {
        out[assignment[b as usize] as usize].push(b);
    }
    out
}

/// Plain constrained BFS from `s` over edges with quality `≥ w` — the
/// overlay builder's oracle (the shard subgraphs are small slices of the
/// input, so an index would cost more to build than it saves).
fn constrained_bfs_from(g: &Graph, s: VertexId, w: Quality) -> Vec<Option<Distance>> {
    let mut dist: Vec<Option<Distance>> = vec![None; g.num_vertices()];
    let mut queue = VecDeque::new();
    dist[s as usize] = Some(0);
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize].expect("queued vertices have distances");
        for (v, q) in g.neighbors(u) {
            if q >= w && dist[v as usize].is_none() {
                dist[v as usize] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// `N` in-process [`FlatIndex`] shards behind one [`OverlayIndex`]: the
/// sharded deployment collapsed into a single address space. Evaluates the
/// same [`ScatterPlan`]/[`OverlayIndex::merge`] pair the network router
/// uses, so a parity test against this type covers the router's composition
/// logic without sockets.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    shards: Vec<Arc<FlatIndex>>,
    overlay: OverlayIndex,
}

impl ShardedIndex {
    /// Builds per-shard `WC-INDEX⁺` flat indexes and the overlay for `g`
    /// under `partition`.
    pub fn build(g: &Graph, partition: &Partition) -> Self {
        let overlay = OverlayIndex::build(g, partition);
        let shards = (0..partition.num_shards() as u32)
            .map(|s| {
                let sub = partition.shard_subgraph(g, s);
                let index = crate::build::IndexBuilder::wc_index_plus().build(&sub);
                Arc::new(FlatIndex::from_index(&index))
            })
            .collect();
        Self { shards, overlay }
    }

    /// Assembles a sharded index from already-built parts, validating that
    /// the shard count and vertex counts line up.
    pub fn from_parts(shards: Vec<Arc<FlatIndex>>, overlay: OverlayIndex) -> Result<Self, String> {
        if shards.len() != overlay.num_shards() {
            return Err(format!(
                "{} shard indexes for an overlay of {} shards",
                shards.len(),
                overlay.num_shards()
            ));
        }
        for (i, shard) in shards.iter().enumerate() {
            if shard.num_vertices() != overlay.num_vertices() {
                return Err(format!(
                    "shard {i} covers {} vertices, overlay covers {} (shards keep global ids)",
                    shard.num_vertices(),
                    overlay.num_vertices()
                ));
            }
        }
        Ok(Self { shards, overlay })
    }

    /// The overlay the shards compose through.
    pub fn overlay(&self) -> &OverlayIndex {
        &self.overlay
    }

    /// The per-shard flat indexes, in shard order.
    pub fn shards(&self) -> &[Arc<FlatIndex>] {
        &self.shards
    }

    /// Vertices covered (same for every shard: global ids).
    pub fn num_vertices(&self) -> usize {
        self.overlay.num_vertices()
    }

    /// Answers `Q(s, t, w)` exactly, composing shard answers through the
    /// overlay, with the default per-shard [`QueryImpl`].
    pub fn distance(&self, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        self.distance_with(s, t, w, QueryImpl::default())
    }

    /// [`Self::distance`] with an explicit per-shard query implementation.
    pub fn distance_with(
        &self,
        s: VertexId,
        t: VertexId,
        w: Quality,
        imp: QueryImpl,
    ) -> Option<Distance> {
        let plan = self.overlay.plan(s, t, w);
        let answers: Vec<Vec<Option<Distance>>> = plan
            .shards
            .iter()
            .map(|&(shard, ref qs)| {
                let idx = &self.shards[shard as usize];
                qs.iter().map(|&(a, b, w)| idx.distance_with(a, b, w, imp)).collect()
            })
            .collect();
        self.overlay.merge(&plan, &answers).expect("in-process scatter answers are complete")
    }

    /// The `WITHIN` predicate: some `w`-path of length `≤ d` exists.
    pub fn within(&self, s: VertexId, t: VertexId, w: Quality, d: Distance) -> bool {
        self.distance(s, t, w).is_some_and(|found| found <= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcsd_graph::generators::{barabasi_albert, QualityAssigner};
    use wcsd_graph::GraphBuilder;

    fn paper_graph() -> Graph {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 3);
        b.add_edge(0, 3, 1);
        b.add_edge(1, 2, 5);
        b.add_edge(1, 3, 2);
        b.add_edge(2, 3, 4);
        b.add_edge(3, 4, 4);
        b.add_edge(3, 5, 2);
        b.add_edge(4, 5, 3);
        b.build()
    }

    #[test]
    fn sharded_matches_oracle_on_paper_graph() {
        let g = paper_graph();
        for k in [1usize, 2, 3] {
            let p = Partition::build(&g, k, 4);
            let sharded = ShardedIndex::build(&g, &p);
            for s in g.vertices() {
                for t in g.vertices() {
                    for w in 0..=6 {
                        let want = constrained_bfs_oracle(&g, s, t, w);
                        assert_eq!(sharded.distance(s, t, w), want, "k={k} s={s} t={t} w={w}");
                    }
                }
            }
        }
    }

    #[test]
    fn overlay_distances_match_bfs_oracle() {
        let g = barabasi_albert(70, 2, &QualityAssigner::uniform(4), 17);
        let p = Partition::build(&g, 3, 99);
        let sharded = ShardedIndex::build(&g, &p);
        for seed in 0..200u64 {
            let s = ((seed * 7919) % 70) as VertexId;
            let t = ((seed * 104729 + 13) % 70) as VertexId;
            let w = (seed % 6) as Quality;
            assert_eq!(
                sharded.distance(s, t, w),
                constrained_bfs_oracle(&g, s, t, w),
                "s={s} t={t} w={w}"
            );
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let g = barabasi_albert(50, 2, &QualityAssigner::uniform(3), 5);
        let p = Partition::build(&g, 2, 1);
        let overlay = OverlayIndex::build(&g, &p);
        let bytes = overlay.encode();
        let back = OverlayIndex::decode(&bytes).expect("roundtrip decodes");
        assert_eq!(overlay, back);
    }

    #[test]
    fn decode_rejects_corrupt_snapshots() {
        let g = barabasi_albert(30, 2, &QualityAssigner::uniform(3), 5);
        let p = Partition::build(&g, 2, 1);
        let bytes = OverlayIndex::build(&g, &p).encode().to_vec();
        assert!(OverlayIndex::decode(&[]).is_err());
        assert!(OverlayIndex::decode(&bytes[..bytes.len() - 4]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(OverlayIndex::decode(&bad_magic).is_err());
        let mut bad_shard = bytes.clone();
        // First assignment word: point it past the shard count.
        bad_shard[WCSO_HEADER..WCSO_HEADER + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(OverlayIndex::decode(&bad_shard).is_err());
        // A 28-byte overlay claiming u32::MAX shards over 0 vertices: the
        // header and the one CSR offset word, and nothing else to check. It
        // must be refused before a boundary list is allocated per shard.
        let mut huge = WCSO_MAGIC.to_vec();
        for word in [WCSO_VERSION, u32::MAX, 0, 0, 0, 0] {
            huge.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(huge.len(), 28);
        let err = OverlayIndex::decode(&huge).unwrap_err();
        assert!(err.contains("shards"), "unexpected error: {err}");
    }

    #[test]
    fn merge_rejects_torn_answers() {
        let g = paper_graph();
        let p = Partition::build(&g, 2, 0);
        let overlay = OverlayIndex::build(&g, &p);
        let plan = overlay.plan(0, 5, 1);
        assert!(overlay.merge(&plan, &[]).is_err());
        let short: Vec<Vec<Option<Distance>>> = plan.shards.iter().map(|_| Vec::new()).collect();
        if plan.fanout_queries() > 0 {
            assert!(overlay.merge(&plan, &short).is_err());
        }
    }

    #[test]
    fn potentials_rejects_rows_of_the_wrong_length() {
        let g = paper_graph();
        let p = Partition::build(&g, 2, 0);
        let overlay = OverlayIndex::build(&g, &p);
        let nb = overlay.shard_boundary(0).len();
        assert!(overlay.potentials(0, 1, &vec![Some(1); nb]).is_ok());
        assert!(overlay.potentials(0, 1, &vec![Some(1); nb + 1]).is_err());
        assert!(overlay.potentials(0, 1, &[]).is_err(), "shard 0 has a boundary");
        assert!(overlay.potentials(2, 1, &[]).is_err(), "no such shard");
    }

    fn constrained_bfs_oracle(g: &Graph, s: VertexId, t: VertexId, w: Quality) -> Option<Distance> {
        constrained_bfs_from(g, s, w)[t as usize]
    }
}
