//! Calls into the layers' public functions, each wrapped in a span: the
//! session stage accessors (`measures` behind `scalar`, `scalarfield`
//! behind the trees, `terrain` behind layout, mesh and scene) and the
//! exporters. The session computes every stage lazily, so calling the
//! accessors in pipeline order does exactly the work one
//! `render_deterministic_to` call would, with a span around each stage.

use graph_terrain::{Scene, TerrainPipeline, TerrainResult, TileKey};
use terrain::Exporter;

use crate::trace::Tracer;

/// Work counts of one traced build.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct BuildCounts {
    /// Super-tree nodes before simplification.
    pub super_tree_nodes: usize,
    /// Nodes of the tree actually rendered.
    pub render_tree_nodes: usize,
    /// Mesh triangles.
    pub mesh_triangles: usize,
    /// Retained scene items (tile builds only).
    pub scene_items: usize,
    /// Bytes written by the exporter or the tile writer.
    pub bytes: usize,
}

/// Span names of the terrain stages, in pipeline order.
pub const STAGES: [&str; 7] = [
    "session.scalar",
    "session.scalar_tree",
    "session.super_tree",
    "session.render_tree",
    "session.layout",
    "session.mesh",
    "terrain.render_deterministic_to",
];

/// Build the whole terrain stage by stage and export it into `out`.
pub fn render(
    tracer: &Tracer,
    request: u64,
    parent: u64,
    detail: &str,
    session: &mut TerrainPipeline<'static>,
    exporter: &dyn Exporter,
    out: &mut Vec<u8>,
) -> TerrainResult<BuildCounts> {
    let span = |name: &str, f: &mut dyn FnMut() -> TerrainResult<()>| {
        tracer.span(name, detail, request, parent, |_| f())
    };
    let mut counts = BuildCounts::default();
    span(STAGES[0], &mut || session.scalar().map(drop))?;
    span(STAGES[1], &mut || session.scalar_tree().map(drop))?;
    span(STAGES[2], &mut || {
        session.super_tree().map(|t| counts.super_tree_nodes = t.node_count())
    })?;
    span(STAGES[3], &mut || {
        session.render_tree().map(|t| counts.render_tree_nodes = t.node_count())
    })?;
    span(STAGES[4], &mut || session.layout().map(drop))?;
    span(STAGES[5], &mut || session.mesh().map(|m| counts.mesh_triangles = m.triangle_count()))?;
    span(STAGES[6], &mut || session.render_deterministic_to(exporter, out))?;
    counts.bytes = out.len();
    Ok(counts)
}

/// Build the retained scene stage by stage and write one tile into `out`
/// (`format=scene` writes binary GTSC, otherwise a `size`-pixel SVG).
#[allow(clippy::too_many_arguments)]
pub fn tile(
    tracer: &Tracer,
    request: u64,
    parent: u64,
    detail: &str,
    session: &mut TerrainPipeline<'static>,
    key: &TileKey,
    scene_format: bool,
    out: &mut Vec<u8>,
) -> TerrainResult<BuildCounts> {
    let span = |name: &str, f: &mut dyn FnMut() -> TerrainResult<()>| {
        tracer.span(name, detail, request, parent, |_| f())
    };
    let mut counts = BuildCounts::default();
    span(STAGES[0], &mut || session.scalar().map(drop))?;
    span(STAGES[1], &mut || session.scalar_tree().map(drop))?;
    span(STAGES[2], &mut || {
        session.super_tree().map(|t| counts.super_tree_nodes = t.node_count())
    })?;
    span("session.scene", &mut || session.scene().map(|s| counts.scene_items = s.item_count()))?;
    write_tile(tracer, request, parent, session.scene()?, key, scene_format, out)?;
    counts.bytes = out.len();
    Ok(counts)
}

/// Write one tile of a built scene into `out`, inside a
/// `scene.write_tile_*` span.
pub fn write_tile(
    tracer: &Tracer,
    request: u64,
    parent: u64,
    scene: &Scene,
    key: &TileKey,
    scene_format: bool,
    out: &mut Vec<u8>,
) -> TerrainResult<()> {
    if scene_format {
        tracer
            .span("scene.write_tile_gtsc", "", request, parent, |_| scene.write_tile_gtsc(key, out))
    } else {
        tracer.span("scene.write_tile_svg", "", request, parent, |_| {
            scene.write_tile_svg(key, 256, out)
        })
    }
}
