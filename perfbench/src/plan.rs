//! Seeded workload inputs: the open-loop tile schedule, the closed-loop
//! client scripts and the delta batches. Everything here is a pure function
//! of the seed (and, for deltas, of the generated graph), so the same seed
//! always sends the same requests.

use crate::rng::Rng;
use ugraph::GraphStorage;

/// Deepest tile zoom the walk visits (the server's default `max_lod`).
pub const MAX_ZOOM: u8 = 8;

/// One scheduled tile request of the open loop.
#[derive(Clone, Debug, PartialEq)]
pub struct TileRequest {
    /// Seconds after the start of the run at which the request is due.
    pub due: f64,
    /// The pan/zoom user this request belongs to.
    pub user: u32,
    /// Zoom level.
    pub zoom: u8,
    /// Column.
    pub tx: u32,
    /// Row.
    pub ty: u32,
    /// `format=scene` (binary GTSC) instead of the default SVG tile.
    pub scene: bool,
    /// A revisit of a tile this user fetched before, sent with
    /// `If-None-Match` when the user holds its ETag by then.
    pub revisit: bool,
}

impl TileRequest {
    /// The request target on the server.
    pub fn target(&self, graph: &str) -> String {
        let format = if self.scene { "&format=scene" } else { "" };
        format!(
            "/graphs/{graph}/tiles/{}/{}/{}?measure={TILE_MEASURE}{format}",
            self.zoom, self.tx, self.ty
        )
    }
}

/// The measure every tile user explores. A k-core tile miss costs about
/// 0.1 s on the seed code, so a 30 s run holds about 100 misses; a
/// PageRank miss costs 0.45 s, which would leave about 30.
pub const TILE_MEASURE: &str = "kcore";
/// Pan/zoom users active at any time.
const ACTIVE_USERS: u64 = 16;

/// What a pan/zoom user does next.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Step {
    /// Open the whole terrain: tile 0/0/0.
    Open,
    /// Zoom in to a random child tile.
    In,
    /// Zoom out to the parent tile.
    Out,
    /// Pan to a random neighbour (clamped to the grid).
    Pan,
    /// Re-request a tile fetched before, with its ETag.
    Revisit,
}

/// Every user's session: the kinds of steps are fixed, so that the share
/// of requests that can miss is the same from seed to seed; which child,
/// neighbour or earlier tile a step picks is random. The `bool` asks for
/// the binary `format=scene` tile instead of SVG.
const SESSION: [(Step, bool); 12] = [
    (Step::Open, false),
    (Step::In, false),
    (Step::In, false),
    (Step::Pan, false),
    (Step::In, false),
    (Step::Revisit, false),
    (Step::In, false),
    (Step::Pan, true),
    (Step::Out, false),
    (Step::In, false),
    (Step::Pan, false),
    (Step::Revisit, false),
];

/// One user's walk over the tile grid.
struct Walk {
    user: u32,
    rng: Rng,
    step: usize,
    at: (u8, u32, u32),
    visited: Vec<(u8, u32, u32, bool)>,
}

impl Walk {
    fn new(seed: u64, user: u32) -> Walk {
        let rng = Rng::new(seed, 1_000 + u64::from(user));
        Walk { user, rng, step: 0, at: (0, 0, 0), visited: Vec::new() }
    }

    fn done(&self) -> bool {
        self.step == SESSION.len()
    }

    /// The user's next request.
    fn next(&mut self, due: f64) -> TileRequest {
        let (kind, scene) = SESSION[self.step];
        self.step += 1;
        let rng = &mut self.rng;
        let (mut zoom, mut tx, mut ty) = self.at;
        match kind {
            Step::Open => (zoom, tx, ty) = (0, 0, 0),
            Step::In if zoom < MAX_ZOOM => {
                zoom += 1;
                tx = 2 * tx + rng.below(2) as u32;
                ty = 2 * ty + rng.below(2) as u32;
            }
            Step::Out if zoom > 0 => (zoom, tx, ty) = (zoom - 1, tx / 2, ty / 2),
            Step::Revisit => {
                let (z, x, y, s) = self.visited[rng.below(self.visited.len() as u64) as usize];
                return TileRequest {
                    due,
                    user: self.user,
                    zoom: z,
                    tx: x,
                    ty: y,
                    scene: s,
                    revisit: true,
                };
            }
            _ => {
                let side = 1u32 << zoom;
                let (dx, dy) = loop {
                    let (dx, dy) = (rng.below(3) as u32, rng.below(3) as u32);
                    if (dx, dy) != (1, 1) {
                        break (dx, dy);
                    }
                };
                tx = (tx + dx).saturating_sub(1).min(side - 1);
                ty = (ty + dy).saturating_sub(1).min(side - 1);
            }
        }
        self.at = (zoom, tx, ty);
        self.visited.push((zoom, tx, ty, scene));
        TileRequest { due, user: self.user, zoom, tx, ty, scene, revisit: false }
    }
}

/// The open-loop schedule: requests are due at `rate` per second, spaced
/// uniformly between half and one and a half times the mean gap, each from
/// one of [`ACTIVE_USERS`] user slots chosen at random; a user who has made
/// all the requests of a [`SESSION`] leaves and a new one takes the slot.
/// Only requests due before `seconds` are kept.
pub fn tile_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<TileRequest> {
    let mut rng = Rng::new(seed, 1);
    let mut users: Vec<Walk> = (0..ACTIVE_USERS as u32).map(|u| Walk::new(seed, u)).collect();
    let mut next_user = ACTIVE_USERS as u32;
    let mut requests = Vec::new();
    let mut due = 0.0;
    loop {
        due += (0.5 + rng.unit()) / rate;
        if due >= seconds {
            return requests;
        }
        let slot = rng.below(ACTIVE_USERS) as usize;
        if users[slot].done() {
            users[slot] = Walk::new(seed, next_user);
            next_user += 1;
        }
        requests.push(users[slot].next(due));
    }
}

/// One operation of a closed-loop dashboard client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MixedOp {
    /// A full terrain render, by index into [`TERRAIN_VARIANTS`].
    Terrain(usize),
    /// The five highest peaks of a measure.
    Peaks(&'static str),
    /// Re-request a target this client already fetched, with the ETag it
    /// got (the target is chosen at run time by this number modulo the
    /// targets known so far).
    Revalidate(u64),
    /// POST the next delta batch (only the writer client sends these).
    Delta,
}

/// The terrain render targets, most popular first: measure, exporter,
/// SVG size, budget.
pub const TERRAIN_VARIANTS: [&str; 16] = [
    "measure=kcore&format=svg",
    "measure=degree&format=svg",
    "measure=kcore&format=json",
    "measure=kcore&format=svg&width=1600&height=1200",
    "measure=degree&format=json",
    "measure=kcore&format=svg&budget=none",
    "measure=degree&format=svg&width=1600&height=1200",
    "measure=degree&format=svg&budget=none",
    "measure=kcore&format=json&budget=none",
    "measure=kcore&format=json&width=1600&height=1200",
    "measure=degree&format=json&budget=none",
    "measure=degree&format=json&width=1600&height=1200",
    "measure=kcore&format=svg&width=1600&height=1200&budget=none",
    "measure=degree&format=svg&width=1600&height=1200&budget=none",
    "measure=kcore&format=json&width=1600&height=1200&budget=none",
    "measure=degree&format=json&width=1600&height=1200&budget=none",
];

/// Every how many operations the writer client posts a delta batch.
pub const DELTA_EVERY: usize = 10;

/// Renders of each [`TERRAIN_VARIANTS`] entry in one deck: a Zipf
/// popularity (weight 1/rank) rounded to 40 renders, so that some renders
/// repeat between deltas.
const TERRAIN_PER_DECK: [usize; 16] = [12, 6, 4, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1];
/// Peaks requests in one deck, alternating k-core and degree.
const PEAKS_PER_DECK: usize = 5;
/// Revalidations in one deck.
const REVALIDATIONS_PER_DECK: usize = 5;

/// The operation script of closed-loop client `client` (client 0 is also
/// the single writer and posts a delta every [`DELTA_EVERY`] operations).
/// The reads come in shuffled decks of a fixed mix, 80% terrain renders
/// and 10% each peaks and revalidations: every run sends nearly the same
/// mix, so the miss median and the throughput do not move with which
/// renders a seed happens to draw; the seed decides their order. Terrain
/// renders dominate, so that most hits are 10-21 MB artifacts rather than
/// small peaks bodies and 304s, and the hit median stays inside one
/// cluster.
pub fn mixed_script(seed: u64, client: usize, len: usize) -> Vec<MixedOp> {
    let mut rng = Rng::new(seed, 2 + client as u64);
    let deck: Vec<MixedOp> = TERRAIN_PER_DECK
        .iter()
        .enumerate()
        .flat_map(|(variant, count)| std::iter::repeat_n(MixedOp::Terrain(variant), *count))
        .chain((0..PEAKS_PER_DECK).map(|i| MixedOp::Peaks(["kcore", "degree"][i % 2])))
        .chain(std::iter::repeat_n(MixedOp::Revalidate(0), REVALIDATIONS_PER_DECK))
        .collect();
    let mut reads: Vec<MixedOp> = Vec::new();
    (0..len)
        .map(|i| {
            if client == 0 && i % DELTA_EVERY == DELTA_EVERY - 1 {
                return MixedOp::Delta;
            }
            if reads.is_empty() {
                reads = deck.clone();
                // Fisher-Yates.
                for at in (1..reads.len()).rev() {
                    reads.swap(at, rng.below(at as u64 + 1) as usize);
                }
            }
            match reads.pop().expect("a refilled deck") {
                MixedOp::Revalidate(_) => MixedOp::Revalidate(rng.next_u64()),
                op => op,
            }
        })
        .collect()
}

/// A delta batch as the writer sends it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaBatch {
    /// `insert` or `delete`.
    pub op: &'static str,
    /// The edges of the batch.
    pub edges: Vec<(u32, u32)>,
}

impl DeltaBatch {
    /// The batch as an edge-list request body.
    pub fn body(&self) -> Vec<u8> {
        self.edges.iter().map(|(u, v)| format!("{u} {v}\n")).collect::<String>().into_bytes()
    }
}

/// Edges per delta batch.
pub const DELTA_EDGES: usize = 1_000;

/// `count` delta batches over `graph`: even batches insert random vertex
/// pairs; odd batches delete half of the previous insert batch and as many
/// edges sampled from the original graph.
pub fn delta_batches(seed: u64, graph: &dyn GraphStorage, count: usize) -> Vec<DeltaBatch> {
    let mut rng = Rng::new(seed, 3);
    let n = graph.vertex_count() as u64;
    let pairs = graph.endpoint_pairs();
    let mut batches: Vec<DeltaBatch> = Vec::with_capacity(count);
    for i in 0..count {
        let batch = if i % 2 == 0 {
            let edges = (0..DELTA_EDGES)
                .map(|_| loop {
                    let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
                    if u != v {
                        break (u, v);
                    }
                })
                .collect();
            DeltaBatch { op: "insert", edges }
        } else {
            let inserted = &batches[i - 1].edges;
            let mut edges: Vec<(u32, u32)> = inserted.iter().step_by(2).copied().collect();
            while edges.len() < DELTA_EDGES {
                let [u, v] = pairs[rng.below(pairs.len() as u64) as usize];
                edges.push((u, v));
            }
            DeltaBatch { op: "delete", edges }
        };
        batches.push(batch);
    }
    batches
}
