//! Fixed-size binary edge shards: the streaming ingestion format.
//!
//! A shard directory holds a graph as a sequence of files
//! (`shard-00000.hgs`, `shard-00001.hgs`, …), each a small header plus at
//! most a fixed number of little-endian `(src, dst)` `u32` pairs. The
//! generators write shards one at a time with bounded buffering — peak
//! memory during generation is one shard's worth of edges, not the whole
//! edge set — and the streaming partitioners replay them as an
//! `Iterator<Item = Edge>` the same way. Concatenating every shard's edges
//! in file order reproduces the generator's exact edge order, so a shard
//! stream is interchangeable with the in-memory edge list for every
//! order-sensitive consumer (the partitioners hash edges positionally
//! through their salt state).
//!
//! Header layout (little-endian): 8-byte magic `HETSHRD1`, `u32` vertex
//! count, `u32` shard index, `u64` edge count. Every read validates the
//! magic, the index sequence, the vertex-count agreement across shards,
//! and that the file holds exactly the declared edges — truncation and
//! corruption surface as typed [`CoreError`]s, never panics.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::{CoreError, Edge};

/// Magic bytes opening every shard file.
pub const SHARD_MAGIC: &[u8; 8] = b"HETSHRD1";

/// Default maximum edges per shard file (8 MiB of edge pairs): large
/// enough that header overhead vanishes, small enough that the writer's
/// buffer stays far below any graph's full edge set.
pub const DEFAULT_SHARD_EDGES: usize = 1 << 20;

/// File name of shard `index` within a shard directory.
fn shard_file_name(index: u32) -> String {
    format!("shard-{index:05}.hgs")
}

/// Serialize one shard: header plus `edges` as LE `u32` pairs.
pub fn write_shard<W: Write>(
    writer: W,
    num_vertices: u32,
    index: u32,
    edges: &[Edge],
) -> Result<(), CoreError> {
    let mut w = BufWriter::new(writer);
    w.write_all(SHARD_MAGIC)?;
    w.write_all(&num_vertices.to_le_bytes())?;
    w.write_all(&index.to_le_bytes())?;
    w.write_all(&(edges.len() as u64).to_le_bytes())?;
    for e in edges {
        w.write_all(&e.src.to_le_bytes())?;
        w.write_all(&e.dst.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Parsed shard header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// Vertex-count bound shared by every shard of a graph.
    pub num_vertices: u32,
    /// Position of this shard in the stream.
    pub index: u32,
    /// Number of edges in this shard.
    pub num_edges: u64,
}

/// Read and validate a shard header.
pub fn read_shard_header<R: Read>(r: &mut R) -> Result<ShardHeader, CoreError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|_| CoreError::BadBinaryFormat("truncated shard magic".into()))?;
    if &magic != SHARD_MAGIC {
        return Err(CoreError::BadBinaryFormat("wrong shard magic bytes".into()));
    }
    let mut buf4 = [0u8; 4];
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf4)
        .map_err(|_| CoreError::BadBinaryFormat("truncated shard vertex count".into()))?;
    let num_vertices = u32::from_le_bytes(buf4);
    r.read_exact(&mut buf4)
        .map_err(|_| CoreError::BadBinaryFormat("truncated shard index".into()))?;
    let index = u32::from_le_bytes(buf4);
    r.read_exact(&mut buf8)
        .map_err(|_| CoreError::BadBinaryFormat("truncated shard edge count".into()))?;
    let num_edges = u64::from_le_bytes(buf8);
    Ok(ShardHeader {
        num_vertices,
        index,
        num_edges,
    })
}

/// Read one whole shard: header plus its edge vector, with range checks.
pub fn read_shard<R: Read>(reader: R) -> Result<(ShardHeader, Vec<Edge>), CoreError> {
    let mut r = BufReader::new(reader);
    let header = read_shard_header(&mut r)?;
    // Untrusted count: a lying header costs one default shard's buffer.
    let mut edges = Vec::with_capacity(header.num_edges.min(DEFAULT_SHARD_EDGES as u64) as usize);
    let mut pair = [0u8; 8];
    for i in 0..header.num_edges {
        r.read_exact(&mut pair)
            .map_err(|_| CoreError::BadBinaryFormat(format!("shard truncated at edge {i}")))?;
        let src = u32::from_le_bytes(pair[0..4].try_into().expect("4 bytes"));
        let dst = u32::from_le_bytes(pair[4..8].try_into().expect("4 bytes"));
        if src >= header.num_vertices || dst >= header.num_vertices {
            return Err(CoreError::VertexOutOfRange {
                vertex: src.max(dst) as u64,
                num_vertices: header.num_vertices as u64,
            });
        }
        edges.push(Edge::new(src, dst));
    }
    Ok((header, edges))
}

/// Streaming shard-directory writer with bounded buffering: edges are
/// buffered up to the per-shard capacity, then flushed as the next shard
/// file. Peak memory is one shard, independent of total edge count.
#[derive(Debug)]
pub struct ShardWriter {
    dir: PathBuf,
    num_vertices: u32,
    capacity: usize,
    buffer: Vec<Edge>,
    next_index: u32,
    total_edges: u64,
}

impl ShardWriter {
    /// Open a writer over `dir` (created if absent) with the default
    /// per-shard capacity.
    pub fn create(dir: &Path, num_vertices: u32) -> Result<Self, CoreError> {
        Self::with_capacity(dir, num_vertices, DEFAULT_SHARD_EDGES)
    }

    /// Open a writer with an explicit per-shard edge capacity (must be
    /// nonzero). Small capacities are useful in tests to force multiple
    /// shards from tiny graphs.
    pub fn with_capacity(
        dir: &Path,
        num_vertices: u32,
        capacity: usize,
    ) -> Result<Self, CoreError> {
        assert!(capacity > 0, "shard capacity must be nonzero");
        std::fs::create_dir_all(dir)?;
        Ok(ShardWriter {
            dir: dir.to_path_buf(),
            num_vertices,
            capacity,
            buffer: Vec::with_capacity(capacity),
            next_index: 0,
            total_edges: 0,
        })
    }

    /// Append one edge, flushing a full shard to disk when the buffer
    /// reaches capacity.
    pub fn push(&mut self, e: Edge) -> Result<(), CoreError> {
        debug_assert!(e.src < self.num_vertices && e.dst < self.num_vertices);
        self.buffer.push(e);
        self.total_edges += 1;
        if self.buffer.len() >= self.capacity {
            self.flush_shard()?;
        }
        Ok(())
    }

    fn flush_shard(&mut self) -> Result<(), CoreError> {
        let path = self.dir.join(shard_file_name(self.next_index));
        write_shard(
            File::create(path)?,
            self.num_vertices,
            self.next_index,
            &self.buffer,
        )?;
        self.next_index += 1;
        self.buffer.clear();
        Ok(())
    }

    /// Flush any buffered edges and return the total edge count written.
    /// An empty graph still produces one empty shard so that the directory
    /// is self-describing (vertex count lives in the header).
    pub fn finish(mut self) -> Result<u64, CoreError> {
        if !self.buffer.is_empty() || self.next_index == 0 {
            self.flush_shard()?;
        }
        Ok(self.total_edges)
    }
}

/// A validated shard directory, replayable any number of times.
///
/// Opening scans every `shard-*.hgs` file in index order, checks headers
/// (magic, contiguous indexes, consistent vertex count) and that each
/// file's size matches its declared edge count, so iteration after a
/// successful open cannot run into malformed data.
#[derive(Debug, Clone)]
pub struct ShardSet {
    dir: PathBuf,
    num_vertices: u32,
    shards: Vec<ShardHeader>,
    total_edges: u64,
}

impl ShardSet {
    /// Open and validate the shard directory `dir`.
    pub fn open(dir: &Path) -> Result<Self, CoreError> {
        let mut shards = Vec::new();
        let mut num_vertices = None;
        let mut total_edges = 0u64;
        loop {
            let index = shards.len() as u32;
            let path = dir.join(shard_file_name(index));
            if !path.exists() {
                break;
            }
            let file = File::open(&path)?;
            let file_len = file.metadata()?.len();
            let mut r = BufReader::new(file);
            let header = read_shard_header(&mut r)?;
            if header.index != index {
                return Err(CoreError::BadBinaryFormat(format!(
                    "shard {index} declares index {}",
                    header.index
                )));
            }
            match num_vertices {
                None => num_vertices = Some(header.num_vertices),
                Some(n) if n != header.num_vertices => {
                    return Err(CoreError::BadBinaryFormat(format!(
                        "shard {index} declares {} vertices, expected {n}",
                        header.num_vertices
                    )));
                }
                Some(_) => {}
            }
            // Checked: a lying edge count must not wrap into a match.
            let expected = header
                .num_edges
                .checked_mul(8)
                .and_then(|b| b.checked_add(24));
            if expected != Some(file_len) {
                return Err(CoreError::BadBinaryFormat(format!(
                    "shard {index} is {file_len} bytes, not 24 + 8 × {} for its declared edges",
                    header.num_edges
                )));
            }
            total_edges += header.num_edges;
            shards.push(header);
        }
        if shards.is_empty() {
            return Err(CoreError::BadBinaryFormat(format!(
                "no shard-00000.hgs in {}",
                dir.display()
            )));
        }
        Ok(ShardSet {
            dir: dir.to_path_buf(),
            num_vertices: num_vertices.expect("at least one shard"),
            shards,
            total_edges,
        })
    }

    /// Vertex-count bound shared by every shard.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Total edges across all shards.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.total_edges
    }

    /// Number of shard files.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Replay every edge in stream order. One shard is resident at a time.
    ///
    /// I/O errors after the validated open (disk removed mid-read, file
    /// rewritten underneath us) panic with a descriptive message rather
    /// than silently truncating the stream — a partitioner fed a partial
    /// stream would produce a wrong-but-plausible assignment.
    pub fn stream(&self) -> ShardStream<'_> {
        ShardStream {
            set: self,
            shard: 0,
            edges: Vec::new(),
            pos: 0,
        }
    }

    /// Run `f` over every edge in stream order (convenience wrapper over
    /// [`ShardSet::stream`]).
    pub fn for_each_edge<F: FnMut(Edge)>(&self, mut f: F) {
        for e in self.stream() {
            f(e);
        }
    }
}

/// Iterator over a [`ShardSet`]'s edges in stream order, loading one shard
/// at a time.
#[derive(Debug)]
pub struct ShardStream<'a> {
    set: &'a ShardSet,
    shard: usize,
    edges: Vec<Edge>,
    pos: usize,
}

impl Iterator for ShardStream<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        loop {
            if self.pos < self.edges.len() {
                let e = self.edges[self.pos];
                self.pos += 1;
                return Some(e);
            }
            if self.shard >= self.set.shards.len() {
                return None;
            }
            let path = self.set.dir.join(shard_file_name(self.shard as u32));
            let (_, edges) = read_shard(File::open(&path).unwrap_or_else(|e| {
                panic!("shard {} vanished after validation: {e}", path.display())
            }))
            .unwrap_or_else(|e| panic!("shard {} changed after validation: {e}", path.display()));
            self.edges = edges;
            self.pos = 0;
            self.shard += 1;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining_here = self.edges.len() - self.pos;
        let later: u64 = self.set.shards[self.shard.min(self.set.shards.len())..]
            .iter()
            .map(|h| h.num_edges)
            .sum();
        let total = remaining_here + later as usize;
        (total, Some(total))
    }
}

impl ExactSizeIterator for ShardStream<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hetgraph_shard_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample_edges(count: u32) -> Vec<Edge> {
        (0..count)
            .map(|i| Edge::new(i % 10, (i * 7 + 1) % 10))
            .collect()
    }

    #[test]
    fn writer_splits_into_fixed_shards_and_stream_replays_in_order() {
        let dir = temp_dir("split");
        let edges = sample_edges(25);
        let mut w = ShardWriter::with_capacity(&dir, 10, 8).unwrap();
        for &e in &edges {
            w.push(e).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 25);
        let set = ShardSet::open(&dir).unwrap();
        assert_eq!(set.num_vertices(), 10);
        assert_eq!(set.num_edges(), 25);
        assert_eq!(set.num_shards(), 4); // 8 + 8 + 8 + 1
        assert_eq!(set.stream().len(), 25);
        let replayed: Vec<Edge> = set.stream().collect();
        assert_eq!(replayed, edges);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_graph_roundtrips_as_one_empty_shard() {
        let dir = temp_dir("empty");
        let w = ShardWriter::with_capacity(&dir, 7, 4).unwrap();
        assert_eq!(w.finish().unwrap(), 0);
        let set = ShardSet::open(&dir).unwrap();
        assert_eq!(set.num_vertices(), 7);
        assert_eq!(set.num_edges(), 0);
        assert_eq!(set.num_shards(), 1);
        assert_eq!(set.stream().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_edge_shard_roundtrips() {
        let dir = temp_dir("single");
        let mut w = ShardWriter::create(&dir, 3).unwrap();
        w.push(Edge::new(2, 0)).unwrap();
        w.finish().unwrap();
        let set = ShardSet::open(&dir).unwrap();
        assert_eq!(set.stream().collect::<Vec<_>>(), vec![Edge::new(2, 0)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_header_is_a_typed_error() {
        let dir = temp_dir("trunc_header");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(shard_file_name(0)), b"HETSH").unwrap();
        assert!(matches!(
            ShardSet::open(&dir),
            Err(CoreError::BadBinaryFormat(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_magic_is_a_typed_error() {
        let dir = temp_dir("magic");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = Vec::new();
        write_shard(&mut bytes, 4, 0, &[Edge::new(0, 1)]).unwrap();
        bytes[0..8].copy_from_slice(b"NOTSHARD");
        std::fs::write(dir.join(shard_file_name(0)), &bytes).unwrap();
        assert!(matches!(
            ShardSet::open(&dir),
            Err(CoreError::BadBinaryFormat(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_body_is_a_typed_error() {
        let dir = temp_dir("trunc_body");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = Vec::new();
        write_shard(&mut bytes, 4, 0, &sample_edges(5)).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(dir.join(shard_file_name(0)), &bytes).unwrap();
        assert!(matches!(
            ShardSet::open(&dir),
            Err(CoreError::BadBinaryFormat(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A header declaring 2^61 + 1 edges over a 1-edge payload: `8 * m`
    /// wraps to 8, so an unchecked size test would accept the file and the
    /// reader would then try to allocate 2^61 edges.
    #[test]
    fn lying_edge_count_is_a_typed_error_not_a_panic() {
        let lie = (1u64 << 61) + 1;
        let mut bytes = Vec::new();
        write_shard(&mut bytes, 4, 0, &[Edge::new(0, 1)]).unwrap();
        bytes[16..24].copy_from_slice(&lie.to_le_bytes());
        let dir = temp_dir("lying_count");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(shard_file_name(0)), &bytes).unwrap();
        match ShardSet::open(&dir) {
            Err(CoreError::BadBinaryFormat(msg)) => {
                assert!(msg.contains("declared edges"), "{msg}")
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
        // Read directly, the same header costs a bounded buffer and ends
        // at the truncation error.
        match read_shard(bytes.as_slice()) {
            Err(CoreError::BadBinaryFormat(msg)) => assert!(msg.contains("edge 1"), "{msg}"),
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_vertex_counts_are_rejected() {
        let dir = temp_dir("mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = Vec::new();
        write_shard(&mut a, 4, 0, &[Edge::new(0, 1)]).unwrap();
        std::fs::write(dir.join(shard_file_name(0)), &a).unwrap();
        let mut b = Vec::new();
        write_shard(&mut b, 9, 1, &[Edge::new(0, 1)]).unwrap();
        std::fs::write(dir.join(shard_file_name(1)), &b).unwrap();
        assert!(matches!(
            ShardSet::open(&dir),
            Err(CoreError::BadBinaryFormat(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_vertex_is_a_typed_error() {
        let mut bytes = Vec::new();
        write_shard(&mut bytes, 100, 0, &[Edge::new(50, 99)]).unwrap();
        // Rewrite the vertex bound below the edge endpoints.
        bytes[8..12].copy_from_slice(&10u32.to_le_bytes());
        assert!(matches!(
            read_shard(bytes.as_slice()),
            Err(CoreError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn missing_directory_is_a_typed_error() {
        let dir = temp_dir("missing");
        assert!(matches!(
            ShardSet::open(&dir),
            Err(CoreError::BadBinaryFormat(_))
        ));
    }

    #[test]
    fn reread_is_deterministic_across_threads() {
        let dir = temp_dir("threads");
        let edges = sample_edges(100);
        let mut w = ShardWriter::with_capacity(&dir, 10, 16).unwrap();
        for &e in &edges {
            w.push(e).unwrap();
        }
        w.finish().unwrap();
        for threads in [1usize, 2, 4] {
            let reads: Vec<Vec<Edge>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let dir = dir.clone();
                        s.spawn(move || ShardSet::open(&dir).unwrap().stream().collect())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in &reads {
                assert_eq!(r, &edges, "replay diverged at {threads} threads");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
