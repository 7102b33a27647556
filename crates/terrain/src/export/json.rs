//! JSON scene backend: the whole rendered scene — mesh, layout, tree scalars
//! and stage timings — as one JSON document for web frontends.
//!
//! The document is hand-serialized (no serde dependency) with a fixed field
//! order and shortest-round-trip `f64` formatting, so identical scenes always
//! produce identical bytes and every number survives `JSON.parse` exactly.
//!
//! Layout:
//!
//! ```json
//! {
//!   "meta": {"nodes": 5, "vertices": 40, "triangles": 36},
//!   "tree": {"scalars": [...], "parents": [...], "subtree_members": [...]},
//!   "layout": {"width": 1.0, "height": 1.0, "rects": [[x0,y0,x1,y1], ...]},
//!   "mesh": {"vertices": [[x,y,z], ...],
//!            "triangles": [{"v": [a,b,c], "color": "#rrggbb", "node": 0, "top": true}, ...]},
//!   "timings": [{"stage": "tree", "seconds": 0.25}, ...]
//! }
//! ```

use super::chunk::ChunkWriter;
use super::{Exporter, RenderScene};
use crate::error::TerrainResult;
use std::io::{self, Write};

/// The JSON backend: streams mesh + layout + tree + timings for consumption
/// by web frontends (or anything else that speaks JSON).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct JsonScene;

impl Exporter for JsonScene {
    fn name(&self) -> &'static str {
        "json"
    }

    fn file_extension(&self) -> &'static str {
        "json"
    }

    fn write_to(&self, scene: &RenderScene<'_>, out: &mut dyn std::io::Write) -> TerrainResult<()> {
        let tree = scene.tree;
        let layout = scene.layout;
        let mesh = scene.mesh;

        // Every float is written as its shortest round-trip decimal, the
        // bytes of `f64`'s `Display`; every scene value is finite (enforced
        // upstream), so no special casing is needed. `1` parses as the
        // number 1. Integers are written by `uint`, the structure as byte
        // literals.
        let mut out = ChunkWriter::new(out);
        out.write_all(b"{\n  \"meta\": {\"nodes\": ")?;
        out.uint(tree.node_count() as u64)?;
        out.write_all(b", \"vertices\": ")?;
        out.uint(mesh.vertex_count() as u64)?;
        out.write_all(b", \"triangles\": ")?;
        out.uint(mesh.triangle_count() as u64)?;
        out.write_all(b"},\n")?;

        // Tree: scalars, parents (null for roots), subtree member counts.
        out.write_all(b"  \"tree\": {\"scalars\": [")?;
        write_list(&mut out, tree.scalars(), |out, &scalar| out.shortest(scalar))?;
        out.write_all(b"], \"parents\": [")?;
        write_list(&mut out, tree.parents(), |out, parent| match parent {
            Some(parent) => out.uint(u64::from(*parent)),
            None => out.write_all(b"null"),
        })?;
        out.write_all(b"], \"subtree_members\": [")?;
        write_list(&mut out, tree.subtree_member_counts(), |out, count| out.uint(count as u64))?;
        out.write_all(b"]},\n")?;

        // Layout: the domain and one rect per node.
        out.write_all(b"  \"layout\": {\"width\": ")?;
        out.shortest(layout.config.width)?;
        out.write_all(b", \"height\": ")?;
        out.shortest(layout.config.height)?;
        out.write_all(b", \"rects\": [\n")?;
        for (i, r) in layout.rects.iter().enumerate() {
            out.write_all(b"    [")?;
            write_list(&mut out, [r.x0, r.y0, r.x1, r.y1], |out, v| out.shortest(v))?;
            out.write_all(b"]")?;
            out.write_all(row_end(i, layout.rects.len()))?;
        }
        out.write_all(b"  ]},\n")?;

        // Mesh: positions and indexed, colored triangles.
        out.write_all(b"  \"mesh\": {\"vertices\": [\n")?;
        for (i, v) in mesh.vertices.iter().enumerate() {
            out.write_all(b"    [")?;
            write_list(&mut out, [v.x, v.y, v.z], |out, c| out.shortest(c))?;
            out.write_all(b"]")?;
            out.write_all(row_end(i, mesh.vertices.len()))?;
        }
        out.write_all(b"  ], \"triangles\": [\n")?;
        for (i, t) in mesh.triangles.iter().enumerate() {
            out.write_all(b"    {\"v\": [")?;
            write_list(&mut out, t.indices, |out, index| out.uint(u64::from(index)))?;
            out.write_all(b"], \"color\": \"")?;
            out.write_all(&t.color.hex_bytes())?;
            out.write_all(b"\", \"node\": ")?;
            out.uint(u64::from(t.node))?;
            out.write_all(if t.is_top { b", \"top\": true}" } else { b", \"top\": false}" })?;
            out.write_all(row_end(i, mesh.triangles.len()))?;
        }
        out.write_all(b"  ]},\n")?;

        // Timings, exactly as the producer recorded them.
        out.write_all(b"  \"timings\": [")?;
        write_list(&mut out, scene.timings, |out, t| {
            out.write_all(b"{\"stage\": \"")?;
            out.write_all(t.stage.as_bytes())?;
            out.write_all(b"\", \"seconds\": ")?;
            out.shortest(t.seconds)?;
            out.write_all(b"}")
        })?;
        out.write_all(b"]\n}\n")?;
        out.finish()?;
        Ok(())
    }
}

/// Write `items` separated by `", "`.
fn write_list<T>(
    out: &mut ChunkWriter<'_>,
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut ChunkWriter<'_>, T) -> io::Result<()>,
) -> io::Result<()> {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.write_all(b", ")?;
        }
        write_item(out, item)?;
    }
    Ok(())
}

/// The line end after row `i` of `len` in a one-row-per-line array: a comma
/// after every row but the last.
fn row_end(i: usize, len: usize) -> &'static [u8] {
    if i + 1 < len {
        b",\n"
    } else {
        b"\n"
    }
}

#[cfg(test)]
mod tests {
    use super::super::SceneTiming;
    use super::*;
    use crate::layout2d::{layout_super_tree, LayoutConfig};
    use crate::mesh::{build_terrain_mesh, MeshConfig};
    use scalarfield::{build_super_tree, vertex_scalar_tree, VertexScalarGraph};
    use ugraph::GraphBuilder;

    fn scene_parts() -> (scalarfield::SuperScalarTree, crate::TerrainLayout, crate::TerrainMesh) {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3)]);
        let g = b.build();
        let scalar = vec![2.0, 2.0, 2.0, 1.0];
        let sg = VertexScalarGraph::new(&g, &scalar).unwrap();
        let tree = build_super_tree(&vertex_scalar_tree(&sg));
        let layout = layout_super_tree(&tree, &LayoutConfig::default());
        let mesh = build_terrain_mesh(&tree, &layout, &MeshConfig::default());
        (tree, layout, mesh)
    }

    #[test]
    fn json_scene_has_every_section_and_matching_counts() {
        let (tree, layout, mesh) = scene_parts();
        let timings = [
            SceneTiming { stage: "tree", seconds: 0.5 },
            SceneTiming { stage: "mesh", seconds: 0.25 },
        ];
        let scene = RenderScene::new(&tree, &layout, &mesh).with_timings(&timings);
        let json = JsonScene.export_string(&scene).unwrap();
        for key in ["\"meta\"", "\"tree\"", "\"layout\"", "\"mesh\"", "\"timings\""] {
            assert!(json.contains(key), "missing {key}");
        }
        assert_eq!(json.matches("\"color\"").count(), mesh.triangle_count());
        assert!(json.contains("{\"stage\": \"tree\", \"seconds\": 0.5}"));
        // Balanced braces/brackets — a cheap structural sanity check that
        // catches missed commas and unterminated arrays.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_scene_without_timings_has_empty_array() {
        let (tree, layout, mesh) = scene_parts();
        let scene = RenderScene::new(&tree, &layout, &mesh);
        let json = JsonScene.export_string(&scene).unwrap();
        assert!(json.contains("\"timings\": []"));
    }
}
