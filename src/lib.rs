//! # graph-terrain
//!
//! A Rust reproduction of *Analyzing and Visualizing Scalar Fields on Graphs*
//! (Zhang, Wang, Parthasarathy, ICDE 2017): scalar graphs, maximal
//! α-connected components, vertex/edge scalar trees, and the terrain-metaphor
//! visualization, together with every substrate the paper's evaluation needs
//! (graph generators, K-Core/K-Truss decompositions, centralities, community
//! and role measures, baseline layouts and a simulated user study).
//!
//! This crate is the façade: it re-exports the workspace crates and adds the
//! high-level entry point — the staged [`TerrainPipeline`] session. A session
//! owns the whole chain scalar field → scalar tree → super tree →
//! simplification → 2D layout → 3D mesh → SVG, computes each stage lazily,
//! caches it, and invalidates exactly the stages downstream of whatever knob
//! you turn: changing the colormap re-colors the mesh, changing the
//! simplification budget reuses the super tree, changing the scalar rebuilds
//! everything. Every accessor is fallible ([`TerrainError`]) and the session
//! records per-stage wall-clock [`StageTimings`] (the `tc`/`tv` split of the
//! paper's Table II).
//!
//! ```
//! use graph_terrain::prelude::*;
//!
//! // A toy collaboration graph.
//! let graph = ugraph::generators::barabasi_albert(200, 3, 7);
//!
//! // K-Core terrain: the session computes the measure itself.
//! let mut session = TerrainPipeline::from_measure(&graph, Measure::KCore);
//! assert!(session.super_tree().unwrap().node_count() >= 1);
//! assert!(session.svg().unwrap().starts_with("<svg"));
//!
//! // Explicit scalar fields work too, for vertex and edge fields alike.
//! let scalar: Vec<f64> = graph.vertices().map(|v| graph.degree(v) as f64).collect();
//! let mut by_degree = TerrainPipeline::vertex(&graph, scalar).unwrap();
//! assert!(by_degree.mesh().unwrap().triangle_count() > 0);
//! ```
//!
//! ## Migrating from `VertexTerrain` / `EdgeTerrain`
//!
//! The one-shot [`VertexTerrain`] / [`EdgeTerrain`] structs are deprecated
//! thin wrappers over the session. The mapping:
//!
//! | old                                        | new                                              |
//! |--------------------------------------------|--------------------------------------------------|
//! | `VertexTerrain::build(&g, &s)?`            | `TerrainPipeline::vertex(&g, s.to_vec())?`       |
//! | `EdgeTerrain::build(&g, &s)?`              | `TerrainPipeline::edge(&g, s.to_vec())?`         |
//! | `.super_tree` / `.layout` / `.mesh` fields | `.super_tree()?` / `.layout()?` / `.mesh()?` (or [`TerrainPipeline::stages`]) |
//! | `.to_svg(w, h)`                            | `.set_svg_size(SvgSize::new(w, h))` + `.svg()?`  |
//! | `.recolor(color)`                          | `.set_color(color)` (now on both field kinds)    |
//!
//! The wrappers never simplify; sessions default to the Section II-E render
//! budget of 4 000 super nodes (`SimplificationConfig::default()`), so pass
//! [`SimplificationConfig::disabled`] to reproduce wrapper output on huge
//! graphs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use baselines;
pub use measures;
pub use scalarfield;
pub use study;
pub use terrain;
pub use ugraph;

mod pipeline;

pub use pipeline::{
    DeltaReport, FieldKind, Measure, MeasureInfo, SharedGraph, SimplificationConfig, StageSet,
    StageTimings, SvgSize, TerrainParts, TerrainPipeline, TerrainStages, MEASURES,
};
pub use terrain::{
    decode_gtsc, GtscDocument, GtscHeader, GtscItem, LodConfig, Rect, Scene, SceneItem,
    TerrainError, TerrainResult, TileKey,
};

use scalarfield::SuperScalarTree;
#[allow(deprecated)]
use terrain::terrain_to_svg;
use terrain::{
    build_terrain_mesh, ColorScheme, LayoutConfig, MeshConfig, TerrainLayout, TerrainMesh,
};
use ugraph::{CsrGraph, GraphError, Result};

/// Convenience prelude for downstream users and the examples.
pub mod prelude {
    pub use crate::{
        DeltaReport, FieldKind, Measure, MeasureInfo, SharedGraph, SimplificationConfig, StageSet,
        StageTimings, SvgSize, TerrainError, TerrainParts, TerrainPipeline, TerrainResult,
        TerrainStages, MEASURES,
    };
    #[allow(deprecated)]
    pub use crate::{EdgeTerrain, VertexTerrain};
    pub use baselines;
    pub use measures;
    pub use scalarfield;
    pub use study;
    pub use terrain;
    pub use ugraph;
}

/// A fully built vertex-scalar terrain: super tree, 2D layout and 3D mesh.
#[deprecated(
    since = "0.2.0",
    note = "use the staged `TerrainPipeline` session (`TerrainPipeline::vertex`) instead"
)]
#[derive(Clone, Debug)]
pub struct VertexTerrain {
    /// The super scalar tree (Algorithms 1 + 2).
    pub super_tree: SuperScalarTree,
    /// The nested 2D boundary layout.
    pub layout: TerrainLayout,
    /// The 3D terrain mesh.
    pub mesh: TerrainMesh,
    // The config the mesh was built with, so `recolor` changes only the
    // color and keeps the height scale / baseline.
    mesh_config: MeshConfig,
}

/// A fully built edge-scalar terrain: super tree, 2D layout and 3D mesh.
#[deprecated(
    since = "0.2.0",
    note = "use the staged `TerrainPipeline` session (`TerrainPipeline::edge`) instead"
)]
#[derive(Clone, Debug)]
pub struct EdgeTerrain {
    /// The super scalar tree (Algorithms 3 + 2).
    pub super_tree: SuperScalarTree,
    /// The nested 2D boundary layout.
    pub layout: TerrainLayout,
    /// The 3D terrain mesh.
    pub mesh: TerrainMesh,
    // The config the mesh was built with, so `recolor` changes only the
    // color and keeps the height scale / baseline.
    mesh_config: MeshConfig,
}

/// Shared wrapper body: run a pipeline session with wrapper-compatible
/// settings (no simplification) and move its stage outputs out
/// ([`TerrainPipeline::into_parts`] — no copies).
fn run_wrapper_session(
    mut session: TerrainPipeline<'_>,
    layout_config: &LayoutConfig,
    mesh_config: &MeshConfig,
) -> Result<(SuperScalarTree, TerrainLayout, TerrainMesh)> {
    session
        .set_simplification(SimplificationConfig::disabled())
        .set_layout(*layout_config)
        .set_mesh(mesh_config.clone());
    let parts = session.into_parts().map_err(terrain_error_to_graph)?;
    Ok((parts.super_tree, parts.layout, parts.mesh))
}

/// The wrappers' historical signature returns [`GraphError`]; with
/// wrapper-compatible settings the layout/mesh/config variants of
/// [`TerrainError`] are unreachable, but map them defensively anyway.
fn terrain_error_to_graph(e: TerrainError) -> GraphError {
    match e {
        TerrainError::Graph(g) => g,
        other => GraphError::InvalidConfig { what: "terrain build", message: other.to_string() },
    }
}

#[allow(deprecated)]
impl VertexTerrain {
    /// Run the full pipeline on a vertex scalar field with default options.
    pub fn build(graph: &CsrGraph, scalar: &[f64]) -> Result<Self> {
        Self::build_with(graph, scalar, &LayoutConfig::default(), &MeshConfig::default())
    }

    /// Run the full pipeline with explicit layout / mesh options (e.g. a
    /// secondary coloring scalar via [`ColorScheme::BySecondaryScalar`]).
    pub fn build_with(
        graph: &CsrGraph,
        scalar: &[f64],
        layout_config: &LayoutConfig,
        mesh_config: &MeshConfig,
    ) -> Result<Self> {
        let session =
            TerrainPipeline::vertex(graph, scalar.to_vec()).map_err(terrain_error_to_graph)?;
        let (super_tree, layout, mesh) = run_wrapper_session(session, layout_config, mesh_config)?;
        Ok(VertexTerrain { super_tree, layout, mesh, mesh_config: mesh_config.clone() })
    }

    /// Render the terrain to an SVG document.
    pub fn to_svg(&self, width_px: f64, height_px: f64) -> String {
        terrain_to_svg(&self.mesh, width_px, height_px)
    }

    /// Re-color the mesh (e.g. by a second scalar) without recomputing the
    /// tree or the layout.
    pub fn recolor(&mut self, color: ColorScheme) {
        self.mesh_config.color = color;
        self.mesh = build_terrain_mesh(&self.super_tree, &self.layout, &self.mesh_config);
    }
}

#[allow(deprecated)]
impl EdgeTerrain {
    /// Run the full pipeline on an edge scalar field with default options.
    pub fn build(graph: &CsrGraph, scalar: &[f64]) -> Result<Self> {
        Self::build_with(graph, scalar, &LayoutConfig::default(), &MeshConfig::default())
    }

    /// Run the full pipeline with explicit layout / mesh options.
    pub fn build_with(
        graph: &CsrGraph,
        scalar: &[f64],
        layout_config: &LayoutConfig,
        mesh_config: &MeshConfig,
    ) -> Result<Self> {
        let session =
            TerrainPipeline::edge(graph, scalar.to_vec()).map_err(terrain_error_to_graph)?;
        let (super_tree, layout, mesh) = run_wrapper_session(session, layout_config, mesh_config)?;
        Ok(EdgeTerrain { super_tree, layout, mesh, mesh_config: mesh_config.clone() })
    }

    /// Render the terrain to an SVG document.
    pub fn to_svg(&self, width_px: f64, height_px: f64) -> String {
        terrain_to_svg(&self.mesh, width_px, height_px)
    }

    /// Re-color the mesh (e.g. by a second scalar) without recomputing the
    /// tree or the layout — the vertex/edge API asymmetry is gone, both
    /// wrappers inherit this from the unified session core.
    pub fn recolor(&mut self, color: ColorScheme) {
        self.mesh_config.color = color;
        self.mesh = build_terrain_mesh(&self.super_tree, &self.layout, &self.mesh_config);
    }
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    #[test]
    fn vertex_terrain_wrapper_end_to_end() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let graph = b.build();
        let cores = measures::core_numbers(&graph);
        let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
        let mut t = VertexTerrain::build(&graph, &scalar).unwrap();
        assert_eq!(t.super_tree.total_members(), graph.vertex_count());
        assert!(t.mesh.triangle_count() > 0);
        assert!(t.to_svg(400.0, 300.0).contains("polygon"));
        // Re-coloring by degree keeps the geometry identical.
        let triangles = t.mesh.triangle_count();
        let degrees: Vec<f64> = graph.vertices().map(|v| graph.degree(v) as f64).collect();
        t.recolor(ColorScheme::BySecondaryScalar(degrees));
        assert_eq!(t.mesh.triangle_count(), triangles);
    }

    #[test]
    fn edge_terrain_wrapper_end_to_end_and_recolor() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3)]);
        let graph = b.build();
        let truss = measures::truss_numbers(&graph);
        let scalar: Vec<f64> = truss.truss.iter().map(|&t| t as f64).collect();
        let mut t = EdgeTerrain::build(&graph, &scalar).unwrap();
        assert_eq!(t.super_tree.total_members(), graph.edge_count());
        assert!(t.to_svg(400.0, 300.0).starts_with("<svg"));
        // The edge wrapper now recolors too (the old API asymmetry).
        let triangles = t.mesh.triangle_count();
        let tri_counts: Vec<f64> =
            measures::edge_triangle_counts(&graph).iter().map(|&c| c as f64).collect();
        t.recolor(ColorScheme::BySecondaryScalar(tri_counts));
        assert_eq!(t.mesh.triangle_count(), triangles);
    }

    #[test]
    fn recolor_keeps_the_build_time_mesh_config() {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let graph = b.build();
        let scalar = vec![2.0, 2.0, 2.0, 1.0, 1.0];
        let config = MeshConfig { height_scale: 5.0, ..Default::default() };
        let mut t =
            VertexTerrain::build_with(&graph, &scalar, &LayoutConfig::default(), &config).unwrap();
        let max_z = |mesh: &TerrainMesh| mesh.bounds().unwrap().1 .2;
        let built_height = max_z(&t.mesh);
        let degrees: Vec<f64> = graph.vertices().map(|v| graph.degree(v) as f64).collect();
        t.recolor(ColorScheme::BySecondaryScalar(degrees));
        assert_eq!(max_z(&t.mesh), built_height, "recolor must not change the height scale");
    }

    #[test]
    fn wrappers_match_the_session_bit_for_bit() {
        let graph = ugraph::generators::barabasi_albert(150, 3, 2);
        let cores = measures::core_numbers(&graph);
        let scalar: Vec<f64> = cores.core.iter().map(|&c| c as f64).collect();
        let wrapper = VertexTerrain::build(&graph, &scalar).unwrap();
        let mut session = TerrainPipeline::vertex(&graph, scalar).unwrap();
        session.set_simplification(SimplificationConfig::disabled());
        session.set_svg_size(SvgSize::new(400.0, 300.0));
        let stages = session.stages().unwrap();
        assert_eq!(stages.super_tree.node_count(), wrapper.super_tree.node_count());
        assert_eq!(stages.layout.rects, wrapper.layout.rects);
        assert_eq!(stages.mesh.triangles, wrapper.mesh.triangles);
        assert_eq!(session.svg().unwrap(), wrapper.to_svg(400.0, 300.0));
    }

    #[test]
    fn mismatched_scalar_lengths_are_rejected() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        let graph = b.build();
        assert!(VertexTerrain::build(&graph, &[1.0]).is_err());
        assert!(EdgeTerrain::build(&graph, &[1.0, 2.0]).is_err());
    }
}
