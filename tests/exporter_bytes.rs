//! Exporter bytes pinned across versions.
//!
//! Every other byte-identity gate compares two outputs of the same build
//! (across threads, storage backends, deltas), so a change to an exporter's
//! own bytes would pass all of them. This test pins the FNV-1a64 digest of
//! each file-format backend's output on one fixed R-MAT graph. The constants
//! were recorded before the exporters were optimized and must never be
//! re-recorded to make this test pass: if one moves, the exporter is wrong.

use graph_terrain::{Measure, SimplificationConfig, TerrainPipeline, TileKey};
use terrain::{Ascii, ColorScheme, Exporter, JsonScene, Obj, Ply, Svg, TreemapSvg};
use ugraph::generators::rmat;
use ugraph::CsrGraph;

/// The pinned graph: R-MAT scale 10 (1,024 vertices), 8,192 edge samples.
fn pinned_graph() -> CsrGraph {
    rmat(10, 8_192, 20_170_419)
}

/// FNV-1a64 over the whole output.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, &b| (hash ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// `(measure, colouring, backend, digest)`: the backend string names the
/// exporter and, for the SVG backends, its pixel size.
const PINNED: &[(&str, &str, &str, u64)] = &[
    ("k-core", "height", "svg 900x700", 0xcac2124aab73b973),
    ("k-core", "height", "treemap 900x700", 0xad2fa5ae3dd888a9),
    ("k-core", "height", "svg 1600x1200", 0xe35c09776aae5d4c),
    ("k-core", "height", "treemap 1600x1200", 0x43492bbb98752366),
    ("k-core", "height", "json", 0x6c829fd66ef4b247),
    ("k-core", "height", "obj", 0xe59e9e3198d8de77),
    ("k-core", "height", "ply", 0xd43d89e1dfaea735),
    ("k-core", "height", "ascii", 0xbfee2ef7f9d7717b),
    ("k-core", "degree", "svg 900x700", 0x9863bf2dd2cb4fdf),
    ("k-core", "degree", "treemap 900x700", 0xad2fa5ae3dd888a9),
    ("k-core", "degree", "svg 1600x1200", 0x87cf20f2b3a6abca),
    ("k-core", "degree", "treemap 1600x1200", 0x43492bbb98752366),
    ("k-core", "degree", "json", 0xd8927f778ed79fad),
    ("k-core", "degree", "obj", 0xe59e9e3198d8de77),
    ("k-core", "degree", "ply", 0x469dfe3200649757),
    ("k-core", "degree", "ascii", 0xbfee2ef7f9d7717b),
    ("pagerank", "height", "svg 900x700", 0xdbb62b72e91d74dc),
    ("pagerank", "height", "treemap 900x700", 0x78c6a438d29e5d98),
    ("pagerank", "height", "svg 1600x1200", 0xe7e24bb9edfe17f8),
    ("pagerank", "height", "treemap 1600x1200", 0xdd21b6b82c60779d),
    ("pagerank", "height", "json", 0x901750861dcb83ff),
    ("pagerank", "height", "obj", 0xd9821e4ef4971702),
    ("pagerank", "height", "ply", 0x370d18cc8a57f5ac),
    ("pagerank", "height", "ascii", 0x3f92ebe3cc7c9285),
    ("pagerank", "degree", "svg 900x700", 0xa78d96bd1472ff98),
    ("pagerank", "degree", "treemap 900x700", 0x78c6a438d29e5d98),
    ("pagerank", "degree", "svg 1600x1200", 0x01323a344eb99b20),
    ("pagerank", "degree", "treemap 1600x1200", 0xdd21b6b82c60779d),
    ("pagerank", "degree", "json", 0x1523003859986fc1),
    ("pagerank", "degree", "obj", 0xd9821e4ef4971702),
    ("pagerank", "degree", "ply", 0x4168e24620f0ba24),
    ("pagerank", "degree", "ascii", 0x3f92ebe3cc7c9285),
];

fn backends() -> Vec<(String, Box<dyn Exporter>)> {
    let mut list: Vec<(String, Box<dyn Exporter>)> = Vec::new();
    for (w, h) in [(900.0, 700.0), (1600.0, 1200.0)] {
        list.push((format!("svg {w}x{h}"), Box::new(Svg::new(w, h))));
        list.push((format!("treemap {w}x{h}"), Box::new(TreemapSvg::new(w, h))));
    }
    list.push(("json".into(), Box::new(JsonScene)));
    list.push(("obj".into(), Box::new(Obj)));
    list.push(("ply".into(), Box::new(Ply)));
    list.push(("ascii".into(), Box::new(Ascii::default())));
    list
}

#[test]
fn exporter_bytes_match_the_pinned_digests() {
    let graph = pinned_graph();
    let degrees: Vec<f64> = measures::degrees(&graph).iter().map(|&d| d as f64).collect();
    let mut observed = Vec::new();
    for measure in [Measure::KCore, Measure::PageRank] {
        let mut session = TerrainPipeline::from_measure(&graph, measure.clone());
        for (colouring, scheme) in [
            ("height", ColorScheme::ByHeight),
            ("degree", ColorScheme::BySecondaryScalar(degrees.clone())),
        ] {
            session.set_color(scheme);
            for (backend, exporter) in backends() {
                let mut out = Vec::new();
                session.render_deterministic_to(exporter.as_ref(), &mut out).unwrap();
                observed.push((measure.name(), colouring, backend, fnv1a64(&out)));
            }
        }
    }
    let table: String = observed
        .iter()
        .map(|(m, c, b, h)| format!("    ({m:?}, {c:?}, {b:?}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(observed.len(), PINNED.len(), "observed digests:\n{table}");
    for ((m, c, b, h), &(pm, pc, pb, ph)) in observed.iter().zip(PINNED) {
        assert_eq!((*m, *c, b.as_str()), (pm, pc, pb), "case order changed:\n{table}");
        assert_eq!(*h, ph, "{b} output changed for {m} coloured by {c}:\n{table}");
    }
}

/// `(measure, backend, digest)` with `node_budget: Some(64)`. The default
/// 4,000-node budget leaves the pinned graph's super tree unsimplified, so
/// only these pins cover snapped scalar levels
/// (`lo + (hi - lo) * bucket / (levels - 1)`), the values whose shortest
/// round-trip digits are hardest to get right.
const PINNED_SIMPLIFIED: &[(&str, &str, u64)] = &[
    ("k-core", "json", 0xb0f5e8e23a2e1e59),
    ("k-core", "svg 900x700", 0xb8528ae977c80f2d),
    ("pagerank", "json", 0x4a69cc0ee82c4466),
    ("pagerank", "svg 900x700", 0xb81bae1c0e78a4e1),
];

#[test]
fn simplified_scene_exports_match_the_pinned_digests() {
    let graph = pinned_graph();
    let mut observed = Vec::new();
    for measure in [Measure::KCore, Measure::PageRank] {
        let mut session = TerrainPipeline::from_measure(&graph, measure.clone());
        session.set_simplification(SimplificationConfig {
            node_budget: Some(64),
            ..Default::default()
        });
        let unsnapped = session.super_tree().unwrap().scalars().to_vec();
        assert!(unsnapped.len() > 64, "{measure:?}: the super tree must exceed the budget");
        let snapped = session.render_tree().unwrap().scalars();
        assert_ne!(snapped, unsnapped.as_slice(), "{measure:?}: budget 64 must snap the scalars");
        let exporters: [(&str, Box<dyn Exporter>); 2] =
            [("json", Box::new(JsonScene)), ("svg 900x700", Box::new(Svg::new(900.0, 700.0)))];
        for (backend, exporter) in exporters {
            let mut out = Vec::new();
            session.render_deterministic_to(exporter.as_ref(), &mut out).unwrap();
            observed.push((measure.name(), backend, fnv1a64(&out)));
        }
    }
    let table: String =
        observed.iter().map(|(m, b, h)| format!("    ({m:?}, {b:?}, 0x{h:016x}),\n")).collect();
    assert_eq!(observed.len(), PINNED_SIMPLIFIED.len(), "observed digests:\n{table}");
    for (&(m, b, h), &(pm, pb, ph)) in observed.iter().zip(PINNED_SIMPLIFIED) {
        assert_eq!((m, b), (pm, pb), "case order changed:\n{table}");
        assert_eq!(h, ph, "{b} output changed for simplified {m}:\n{table}");
    }
}

/// `(measure, tile key, digest)` for 256-pixel SVG tiles of the retained
/// scene: the whole domain and one zoom-2 tile.
const PINNED_TILES: &[(&str, &str, u64)] = &[
    ("k-core", "0/0/0", 0xd7811dd653ea8d8f),
    ("k-core", "2/1/2", 0x2f841bfe18b46d62),
    ("pagerank", "0/0/0", 0x5ebf758eeef7e57a),
    ("pagerank", "2/1/2", 0xc538c4116ca2d15e),
];

#[test]
fn scene_tiles_match_the_pinned_digests() {
    let graph = pinned_graph();
    let mut observed = Vec::new();
    for measure in [Measure::KCore, Measure::PageRank] {
        let mut session = TerrainPipeline::from_measure(&graph, measure.clone());
        let scene = session.scene().unwrap();
        for key in [TileKey { zoom: 0, tx: 0, ty: 0 }, TileKey { zoom: 2, tx: 1, ty: 2 }] {
            let mut out = Vec::new();
            scene.write_tile_svg(&key, 256, &mut out).unwrap();
            assert!(out.len() > 200, "{measure:?} tile {key} is empty");
            observed.push((measure.name(), key.to_string(), fnv1a64(&out)));
        }
    }
    let table: String =
        observed.iter().map(|(m, k, h)| format!("    ({m:?}, {k:?}, 0x{h:016x}),\n")).collect();
    assert_eq!(observed.len(), PINNED_TILES.len(), "observed digests:\n{table}");
    for ((m, k, h), &(pm, pk, ph)) in observed.iter().zip(PINNED_TILES) {
        assert_eq!((*m, k.as_str()), (pm, pk), "case order changed:\n{table}");
        assert_eq!(*h, ph, "tile {k} changed for {m}:\n{table}");
    }
}

/// Whether `text` holds `number` as a whole token: not inside a longer
/// number and not as the magnitude of a negative one.
fn contains_number(text: &str, number: &str) -> bool {
    text.match_indices(number).any(|(at, _)| {
        let before = text[..at].bytes().next_back();
        let after = text[at + number.len()..].bytes().next();
        !matches!(before, Some(b'-' | b'.' | b'0'..=b'9'))
            && !matches!(after, Some(b'.' | b'0'..=b'9' | b'e'))
    })
}

#[test]
fn json_scalars_round_exact_shortest_ties_up_like_core_fmt() {
    // Each of these doubles lies exactly halfway between its two nearest
    // shortest round-trip decimals; `core::fmt` takes the upper one (in
    // magnitude), round-half-even would take the lower. None of the pinned
    // digests above contains such a tie.
    let ties = [
        (f64::powi(2.0, 19) + f64::powi(2.0, -11), "524288.0004882813"),
        (f64::powi(2.0, 49) + 0.25, "562949953421312.3"),
    ];
    let scalars: Vec<f64> = ties.iter().flat_map(|&(v, _)| [v, -v]).collect();
    let mut graph = ugraph::GraphBuilder::new();
    graph.extend_edges([(0u32, 1u32), (1, 2), (2, 3)]);
    let graph = graph.build();
    let mut session = TerrainPipeline::vertex(&graph, scalars.clone()).unwrap();
    let mut out = Vec::new();
    session.render_deterministic_to(&JsonScene, &mut out).unwrap();
    let json = String::from_utf8(out).unwrap();
    for (value, printed) in ties {
        assert_eq!(format!("{value}"), printed, "core::fmt itself changed");
    }
    for value in scalars {
        let printed = format!("{value}");
        assert!(contains_number(&json, &printed), "{printed} is missing from the JSON scene");
    }
}
