//! Graph (de)serialization: SNAP-style text edge lists and a compact binary
//! format.
//!
//! The text format matches what the paper's SNAP datasets use: one
//! `src<whitespace>dst` pair per line, `#`-prefixed comment lines ignored.
//! The binary format is a little-endian `u32` header + edge pairs, ~4x
//! smaller and much faster to load; the generators use it to cache large
//! catalogs between experiment runs.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::{shard::DEFAULT_SHARD_EDGES, CoreError, Edge, EdgeList, Graph};

const BINARY_MAGIC: &[u8; 8] = b"HETGRAF1";

/// Write a graph as a SNAP-style text edge list.
pub fn write_text<W: Write>(writer: W, graph: &Graph) -> Result<(), CoreError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# hetgraph edge list")?;
    writeln!(w, "# vertices: {}", graph.num_vertices())?;
    writeln!(w, "# edges: {}", graph.num_edges())?;
    for e in graph.edges() {
        writeln!(w, "{}\t{}", e.src, e.dst)?;
    }
    w.flush()?;
    Ok(())
}

/// Read a SNAP-style text edge list.
///
/// `num_vertices` may be `None`, in which case it is inferred as
/// `max(vertex id) + 1`. Comment lines start with `#`.
pub fn read_text<R: Read>(reader: R, num_vertices: Option<u32>) -> Result<EdgeList, CoreError> {
    let r = BufReader::new(reader);
    let mut edges: Vec<Edge> = Vec::new();
    let mut max_v: u64 = 0;
    for (idx, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse = |tok: Option<&str>, idx: usize| -> Result<u64, CoreError> {
            let tok = tok.ok_or_else(|| CoreError::Parse {
                line: idx + 1,
                message: "expected two vertex ids".into(),
            })?;
            tok.parse::<u64>().map_err(|_| CoreError::Parse {
                line: idx + 1,
                message: format!("invalid vertex id {tok:?}"),
            })
        };
        let s = parse(parts.next(), idx)?;
        let d = parse(parts.next(), idx)?;
        if parts.next().is_some() {
            return Err(CoreError::Parse {
                line: idx + 1,
                message: "trailing tokens after edge".into(),
            });
        }
        max_v = max_v.max(s).max(d);
        if max_v >= u32::MAX as u64 {
            return Err(CoreError::TooManyVertices(max_v + 1));
        }
        edges.push(Edge::new(s as u32, d as u32));
    }
    let inferred = if edges.is_empty() {
        0
    } else {
        max_v as u32 + 1
    };
    let n = match num_vertices {
        Some(n) => {
            if (inferred as u64) > n as u64 {
                return Err(CoreError::VertexOutOfRange {
                    vertex: max_v,
                    num_vertices: n as u64,
                });
            }
            n
        }
        None => inferred,
    };
    Ok(EdgeList::from_edges(n, edges))
}

/// Write a graph in the compact binary format.
pub fn write_binary<W: Write>(writer: W, graph: &Graph) -> Result<(), CoreError> {
    let mut w = BufWriter::new(writer);
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&graph.num_vertices().to_le_bytes())?;
    w.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    for e in graph.edges() {
        w.write_all(&e.src.to_le_bytes())?;
        w.write_all(&e.dst.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Read a graph from the compact binary format.
pub fn read_binary<R: Read>(reader: R) -> Result<EdgeList, CoreError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|_| CoreError::BadBinaryFormat("truncated magic".into()))?;
    if &magic != BINARY_MAGIC {
        return Err(CoreError::BadBinaryFormat("wrong magic bytes".into()));
    }
    let mut buf4 = [0u8; 4];
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf4)
        .map_err(|_| CoreError::BadBinaryFormat("truncated vertex count".into()))?;
    let n = u32::from_le_bytes(buf4);
    r.read_exact(&mut buf8)
        .map_err(|_| CoreError::BadBinaryFormat("truncated edge count".into()))?;
    let m = u64::from_le_bytes(buf8);
    // Untrusted count: a lying header costs one default shard's buffer.
    let mut edges = Vec::with_capacity(m.min(DEFAULT_SHARD_EDGES as u64) as usize);
    let mut pair = [0u8; 8];
    for i in 0..m {
        r.read_exact(&mut pair)
            .map_err(|_| CoreError::BadBinaryFormat(format!("truncated at edge {i}")))?;
        let src = u32::from_le_bytes(pair[0..4].try_into().expect("4 bytes"));
        let dst = u32::from_le_bytes(pair[4..8].try_into().expect("4 bytes"));
        if src >= n || dst >= n {
            return Err(CoreError::VertexOutOfRange {
                vertex: src.max(dst) as u64,
                num_vertices: n as u64,
            });
        }
        edges.push(Edge::new(src, dst));
    }
    Ok(EdgeList::from_edges(n, edges))
}

/// Convenience: write binary to a filesystem path.
pub fn save_binary(path: &Path, graph: &Graph) -> Result<(), CoreError> {
    write_binary(std::fs::File::create(path)?, graph)
}

/// Convenience: read binary from a filesystem path.
pub fn load_binary(path: &Path) -> Result<Graph, CoreError> {
    Ok(Graph::from_edge_list(read_binary(std::fs::File::open(
        path,
    )?)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn sample_graph() -> Graph {
        Graph::from_edge_list(EdgeList::from_edges(
            5,
            vec![Edge::new(0, 1), Edge::new(3, 4), Edge::new(4, 0)],
        ))
    }

    #[test]
    fn text_roundtrip() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_text(&mut buf, &g).unwrap();
        let el = read_text(buf.as_slice(), Some(5)).unwrap();
        assert_eq!(el.num_vertices(), 5);
        assert_eq!(el.edges(), g.edges());
    }

    #[test]
    fn text_infers_vertex_count() {
        let el = read_text("0 1\n7 2\n".as_bytes(), None).unwrap();
        assert_eq!(el.num_vertices(), 8);
        assert_eq!(el.num_edges(), 2);
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let input = "# header\n\n0\t1\n# mid\n1 2\n";
        let el = read_text(input.as_bytes(), None).unwrap();
        assert_eq!(el.num_edges(), 2);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(matches!(
            read_text("0 x\n".as_bytes(), None),
            Err(CoreError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_text("0\n".as_bytes(), None),
            Err(CoreError::Parse { .. })
        ));
        assert!(matches!(
            read_text("0 1 2\n".as_bytes(), None),
            Err(CoreError::Parse { .. })
        ));
    }

    #[test]
    fn text_rejects_vertex_over_declared_count() {
        assert!(matches!(
            read_text("0 9\n".as_bytes(), Some(5)),
            Err(CoreError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_binary(&mut buf, &g).unwrap();
        let el = read_binary(buf.as_slice()).unwrap();
        assert_eq!(el.num_vertices(), 5);
        assert_eq!(el.edges(), g.edges());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTMAGIC........"[..]).unwrap_err();
        assert!(matches!(err, CoreError::BadBinaryFormat(_)));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_binary(&mut buf, &g).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_binary(buf.as_slice()),
            Err(CoreError::BadBinaryFormat(_))
        ));
    }

    #[test]
    fn binary_lying_edge_count_is_a_typed_error_not_a_panic() {
        // A header claiming 2^61 edges with no payload behind it must cost
        // a bounded buffer, then fail as truncated.
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample_graph()).unwrap();
        buf.truncate(20);
        buf[12..20].copy_from_slice(&(1u64 << 61).to_le_bytes());
        match read_binary(buf.as_slice()) {
            Err(CoreError::BadBinaryFormat(msg)) => assert!(msg.contains("edge 0"), "{msg}"),
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hetgraph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = sample_graph();
        save_binary(&path, &g).unwrap();
        let g2 = load_binary(&path).unwrap();
        assert_eq!(g2.edges(), g.edges());
        std::fs::remove_file(&path).ok();
    }
}
