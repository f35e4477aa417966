//! Delta-varint compressed sparse row adjacency.
//!
//! A [`CompactCsr`] stores each vertex's neighbor list sorted ascending and
//! encoded as LEB128 varints of the *gaps* between consecutive neighbors
//! (the first gap is taken against 0, so every row decodes with one uniform
//! `prev += gap` loop). Sorted lists make every gap non-negative, so no
//! zigzag step is needed, and power-law graphs — where most gaps are small
//! because high-degree rows are dense — compress to ~2–3 bytes per edge
//! instead of the 4 bytes of a plain `u32` target plus the 8-byte `usize`
//! offsets of [`crate::Csr`].
//!
//! Two index arrays accompany the byte stream, both width-adaptive (`u32`
//! when every value fits, `u64` otherwise): cumulative *edge* offsets give
//! O(1) degrees (and let parallel per-edge lanes such as the engine's
//! machine assignments stay plain arrays aligned by edge index), and
//! cumulative *byte* offsets locate each row's varint span.
//!
//! Decoding is sequential per row — O(degree) — which is exactly the access
//! pattern of a gather/scatter kernel. Random single-neighbor access is not
//! supported and not needed.

use crate::{Csr, VertexId};

/// Append `x` to `out` as an LEB128 varint (7 payload bits per byte,
/// high bit = continuation).
#[inline]
pub fn encode_varint(mut x: u32, out: &mut Vec<u8>) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Decode one LEB128 varint from `data` starting at `*pos`, advancing
/// `*pos` past it.
///
/// # Panics
/// Panics (via slice indexing) if the stream ends inside a varint. The
/// encoder in this module never produces such a stream; `CompactCsr` data
/// is built in-process, not read from untrusted input.
#[inline]
pub fn decode_varint(data: &[u8], pos: &mut usize) -> u32 {
    let mut x = 0u32;
    let mut shift = 0u32;
    loop {
        let b = data[*pos];
        *pos += 1;
        x |= ((b & 0x7f) as u32) << shift;
        if b & 0x80 == 0 {
            return x;
        }
        shift += 7;
        debug_assert!(shift < 35, "varint longer than a u32");
    }
}

/// Width-adaptive offset index: `u32` arrays when every offset fits,
/// `u64` otherwise (graphs past ~4.29 G edges or compressed bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Index {
    /// Narrow index: all offsets fit in `u32`.
    U32 {
        /// Cumulative edge counts, length `n + 1`.
        edge: Vec<u32>,
        /// Cumulative byte positions into `data`, length `n + 1`.
        byte: Vec<u32>,
    },
    /// Wide index for graphs whose edge count or byte size exceeds `u32`.
    U64 {
        /// Cumulative edge counts, length `n + 1`.
        edge: Vec<u64>,
        /// Cumulative byte positions into `data`, length `n + 1`.
        byte: Vec<u64>,
    },
}

impl Index {
    #[inline]
    fn edge_range(&self, v: usize) -> (usize, usize) {
        match self {
            Index::U32 { edge, .. } => (edge[v] as usize, edge[v + 1] as usize),
            Index::U64 { edge, .. } => (edge[v] as usize, edge[v + 1] as usize),
        }
    }

    #[inline]
    fn byte_range(&self, v: usize) -> (usize, usize) {
        match self {
            Index::U32 { byte, .. } => (byte[v] as usize, byte[v + 1] as usize),
            Index::U64 { byte, .. } => (byte[v] as usize, byte[v + 1] as usize),
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            Index::U32 { edge, byte } => (edge.len() + byte.len()) * 4,
            Index::U64 { edge, byte } => (edge.len() + byte.len()) * 8,
        }
    }
}

/// One direction of adjacency in delta-varint form: sorted neighbor lists,
/// gap-encoded, with width-adaptive edge and byte offset indexes.
///
/// Neighbor lists are *always sorted ascending* — construction sorts them —
/// so iteration order can differ from the insertion-ordered [`Csr`]. All
/// engine programs are insensitive to neighbor order (their gather folds
/// are commutative), which is what makes this drop-in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactCsr {
    num_vertices: u32,
    num_edges: usize,
    index: Index,
    data: Vec<u8>,
}

impl CompactCsr {
    /// Compress a plain CSR. Each row is copied, sorted ascending, and
    /// gap-encoded; the input is not mutated.
    pub fn from_csr(csr: &Csr) -> Self {
        let mut b = CompactCsrBuilder::new(csr.num_vertices());
        let mut row: Vec<VertexId> = Vec::new();
        for v in 0..csr.num_vertices() {
            row.clear();
            row.extend_from_slice(csr.neighbors(v));
            row.sort_unstable();
            b.push_row(&row);
        }
        b.finish()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of stored adjacency entries (== number of edges).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of vertex `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let (lo, hi) = self.index.edge_range(v as usize);
        hi - lo
    }

    /// Half-open edge-index range of `v`'s row: the slice positions its
    /// neighbors would occupy in a concatenated targets array. Per-edge
    /// side arrays (e.g. machine lanes) are indexed by this range.
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> (usize, usize) {
        self.index.edge_range(v as usize)
    }

    /// Decode `v`'s sorted neighbor list into `out` (cleared first).
    #[inline]
    pub fn decode_row_into(&self, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        out.reserve(self.degree(v));
        self.for_each_neighbor(v, |u| out.push(u));
    }

    /// Fused decode loop: call `f` with each neighbor of `v` in ascending
    /// order, without materializing the row.
    #[inline]
    pub fn for_each_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        let (lo, hi) = self.index.byte_range(v as usize);
        let row = &self.data[lo..hi];
        let mut pos = 0usize;
        let mut prev = 0u32;
        while pos < row.len() {
            prev += decode_varint(row, &mut pos);
            f(prev);
        }
    }

    /// A decoding cursor over `v`'s sorted neighbors.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> CompactNeighbors<'_> {
        let (lo, hi) = self.index.byte_range(v as usize);
        CompactNeighbors {
            row: &self.data[lo..hi],
            pos: 0,
            prev: 0,
            remaining: self.degree(v),
        }
    }

    /// Resident footprint in bytes: varint data plus both offset indexes.
    /// This is the number the scale benchmark's RSS-per-edge gate audits.
    pub fn resident_bytes(&self) -> usize {
        self.data.len() + self.index.resident_bytes()
    }

    /// This direction's degree index, for [`meta_pair`].
    fn degree_index(&self) -> crate::meta::DegreeIndex<'_> {
        match &self.index {
            Index::U32 { edge, .. } => crate::meta::DegreeIndex::Narrow(edge),
            Index::U64 { edge, .. } => crate::meta::DegreeIndex::Narrow64(edge),
        }
    }
}

/// The [`crate::GraphMeta`] view over an out/in pair of compact
/// directions. Each direction's index width is chosen independently by
/// its builder, so the pair may mix narrow and wide.
///
/// # Panics
/// Debug builds assert both directions describe the same graph.
pub fn meta_pair<'a>(out: &'a CompactCsr, inn: &'a CompactCsr) -> crate::GraphMeta<'a> {
    debug_assert_eq!(out.num_vertices, inn.num_vertices);
    debug_assert_eq!(out.num_edges, inn.num_edges);
    crate::GraphMeta::from_parts(
        out.num_vertices,
        out.num_edges,
        out.degree_index(),
        inn.degree_index(),
    )
}

/// Sequential decoder over one vertex's sorted neighbor list.
#[derive(Debug, Clone)]
pub struct CompactNeighbors<'a> {
    row: &'a [u8],
    pos: usize,
    prev: u32,
    remaining: usize,
}

impl Iterator for CompactNeighbors<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.pos >= self.row.len() {
            return None;
        }
        self.prev += decode_varint(self.row, &mut self.pos);
        self.remaining -= 1;
        Some(self.prev)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for CompactNeighbors<'_> {}

/// Incremental [`CompactCsr`] constructor: feed rows in vertex order.
///
/// Rows must already be sorted ascending — the builder gap-encodes them
/// as given (debug builds assert sortedness). Used directly by callers
/// that interleave row construction with per-edge side arrays (the
/// engine's machine lanes) and by [`CompactCsr::from_csr`].
#[derive(Debug)]
pub struct CompactCsrBuilder {
    num_vertices: u32,
    rows_pushed: u32,
    edge_offsets: Vec<u64>,
    byte_offsets: Vec<u64>,
    data: Vec<u8>,
}

impl CompactCsrBuilder {
    /// Start a builder expecting exactly `num_vertices` rows.
    pub fn new(num_vertices: u32) -> Self {
        let mut edge_offsets = Vec::with_capacity(num_vertices as usize + 1);
        let mut byte_offsets = Vec::with_capacity(num_vertices as usize + 1);
        edge_offsets.push(0);
        byte_offsets.push(0);
        CompactCsrBuilder {
            num_vertices,
            rows_pushed: 0,
            edge_offsets,
            byte_offsets,
            data: Vec::new(),
        }
    }

    /// Append the next vertex's sorted neighbor list.
    ///
    /// # Panics
    /// Panics if more than `num_vertices` rows are pushed; debug builds
    /// also assert the row is sorted ascending.
    pub fn push_row(&mut self, sorted_neighbors: &[VertexId]) {
        assert!(
            self.rows_pushed < self.num_vertices,
            "row for vertex {} exceeds declared {} vertices",
            self.rows_pushed,
            self.num_vertices
        );
        debug_assert!(
            sorted_neighbors.windows(2).all(|w| w[0] <= w[1]),
            "neighbor row must be sorted ascending"
        );
        let mut prev = 0u32;
        for &u in sorted_neighbors {
            encode_varint(u - prev, &mut self.data);
            prev = u;
        }
        self.rows_pushed += 1;
        let edges = *self.edge_offsets.last().expect("seeded") + sorted_neighbors.len() as u64;
        self.edge_offsets.push(edges);
        self.byte_offsets.push(self.data.len() as u64);
    }

    /// Finish construction, choosing the narrow index when it fits.
    ///
    /// # Panics
    /// Panics if fewer than `num_vertices` rows were pushed.
    pub fn finish(self) -> CompactCsr {
        assert_eq!(
            self.rows_pushed, self.num_vertices,
            "builder finished after {} of {} rows",
            self.rows_pushed, self.num_vertices
        );
        let num_edges = *self.edge_offsets.last().expect("seeded") as usize;
        let max = (num_edges as u64).max(self.data.len() as u64);
        let index = if max <= u32::MAX as u64 {
            Index::U32 {
                edge: self.edge_offsets.iter().map(|&x| x as u32).collect(),
                byte: self.byte_offsets.iter().map(|&x| x as u32).collect(),
            }
        } else {
            Index::U64 {
                edge: self.edge_offsets,
                byte: self.byte_offsets,
            }
        };
        CompactCsr {
            num_vertices: self.num_vertices,
            num_edges,
            index,
            data: self.data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Edge;

    #[test]
    fn varint_roundtrip_boundaries() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 16383, 16384, 1 << 21, u32::MAX];
        for &v in &values {
            encode_varint(v, &mut buf);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(decode_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_single_byte_for_small_values() {
        let mut buf = Vec::new();
        encode_varint(127, &mut buf);
        assert_eq!(buf.len(), 1);
        encode_varint(128, &mut buf);
        assert_eq!(buf.len(), 3);
    }

    fn sample_csr() -> Csr {
        Csr::from_edges(
            5,
            &[
                Edge::new(0, 4),
                Edge::new(0, 1),
                Edge::new(0, 1), // duplicate: zero gap must survive
                Edge::new(2, 3),
                Edge::new(4, 0),
                Edge::new(4, 2),
            ],
        )
    }

    #[test]
    fn rows_decode_to_sorted_plain_rows() {
        let csr = sample_csr();
        let compact = CompactCsr::from_csr(&csr);
        assert_eq!(compact.num_vertices(), 5);
        assert_eq!(compact.num_edges(), csr.num_edges());
        let mut row = Vec::new();
        for v in 0..5 {
            let mut plain = csr.neighbors(v).to_vec();
            plain.sort_unstable();
            compact.decode_row_into(v, &mut row);
            assert_eq!(row, plain, "row {v}");
            assert_eq!(compact.degree(v), csr.degree(v), "degree {v}");
            let cursor: Vec<_> = compact.neighbors(v).collect();
            assert_eq!(cursor, plain, "cursor row {v}");
            assert_eq!(compact.neighbors(v).len(), plain.len());
        }
    }

    #[test]
    fn edge_ranges_match_cumulative_degrees() {
        let compact = CompactCsr::from_csr(&sample_csr());
        let mut cursor = 0usize;
        for v in 0..5 {
            let (lo, hi) = compact.edge_range(v);
            assert_eq!(lo, cursor);
            cursor += compact.degree(v);
            assert_eq!(hi, cursor);
        }
        assert_eq!(cursor, compact.num_edges());
    }

    #[test]
    fn for_each_matches_cursor() {
        let compact = CompactCsr::from_csr(&sample_csr());
        for v in 0..5 {
            let mut pushed = Vec::new();
            compact.for_each_neighbor(v, |u| pushed.push(u));
            let iterated: Vec<_> = compact.neighbors(v).collect();
            assert_eq!(pushed, iterated);
        }
    }

    #[test]
    fn empty_graph() {
        let compact = CompactCsr::from_csr(&Csr::from_edges(3, &[]));
        assert_eq!(compact.num_edges(), 0);
        for v in 0..3 {
            assert_eq!(compact.degree(v), 0);
            assert_eq!(compact.neighbors(v).count(), 0);
        }
    }

    #[test]
    fn dense_small_rows_take_about_one_byte_per_edge() {
        // Ring graph: every gap is tiny, so each edge is one varint byte.
        let edges: Vec<Edge> = (0..1000u32).map(|v| Edge::new(v, (v + 1) % 1000)).collect();
        let compact = CompactCsr::from_csr(&Csr::from_edges(1000, &edges));
        let data_bytes = compact.resident_bytes() - 2 * 1001 * 4;
        assert!(
            data_bytes <= 2 * edges.len(),
            "{data_bytes} bytes for {} edges",
            edges.len()
        );
    }

    #[test]
    fn builder_rejects_row_overflow() {
        let mut b = CompactCsrBuilder::new(1);
        b.push_row(&[0]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.push_row(&[0])));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "of 2 rows")]
    fn builder_rejects_missing_rows() {
        let b = CompactCsrBuilder::new(2);
        b.finish();
    }

    #[test]
    fn meta_pair_reports_both_directions() {
        let edges = [Edge::new(0, 4), Edge::new(0, 1), Edge::new(2, 0)];
        let out = CompactCsr::from_csr(&Csr::from_edges(5, &edges));
        let inn = CompactCsr::from_csr(&Csr::from_edges_reversed(5, &edges));
        let m = meta_pair(&out, &inn);
        assert_eq!(m.num_vertices(), 5);
        assert_eq!(m.num_edges(), 3);
        assert_eq!(m.out_degree(0), 2);
        assert_eq!(m.in_degree(0), 1);
        assert_eq!(m.degree(0), 3);
        assert_eq!(m.max_total_degree(), 3);
    }

    #[test]
    fn resident_bytes_accounts_index_and_data() {
        let compact = CompactCsr::from_csr(&sample_csr());
        // 2 indexes x 6 entries x 4 bytes (narrow) + at least one data byte
        // per edge.
        assert!(compact.resident_bytes() >= 2 * 6 * 4 + compact.num_edges());
    }
}
