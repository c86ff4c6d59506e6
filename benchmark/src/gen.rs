//! Seeded request generators. Everything the server sees is produced here
//! as dc-ql **text** (or typed `INSERT` records) from `--seed`; the same
//! seed yields a byte-identical request stream.
//!
//! Three query families, each varying query *shape* rather than only size:
//!
//! * [`narrow`] — non-repeating drill-down queries: 2–3 dimensions
//!   constrained at upper/middle hierarchy levels, `IN`-lists of ≤ 4 names,
//!   `SELECT SUM, COUNT, MIN, MAX`. The shape (which dimensions, which
//!   levels, list length) cycles through a fixed enumeration so every seed
//!   poses the same shape mix; only the names drawn differ.
//! * [`wide`] — the paper's §5.2 generator: every dimension constrained at
//!   a random level to a contiguous run of 1 % / 5 % / 25 % of that level's
//!   values, rendered as dc-ql `IN`-lists (kilobytes of text per query).
//! * [`rollups`] — 256 short dashboard templates (scalar, multi-aggregate,
//!   `GROUP BY` a coarse level, `TOP k`) asked with Zipf(θ = 1) popularity.

use std::collections::HashSet;

use dc_common::{AggregateOp, DimensionId, Level, ValueId};
use dc_hierarchy::{ConceptHierarchy, CubeSchema, Record};
use dc_tpcd::{TpcdConfig, ZipfSampler};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Raw record as the wire carries it: one top→leaf path per dimension.
pub type RawRecord = (Vec<Vec<String>>, i64);

/// Derives an independent stream seed from `--seed` and a stream tag
/// (splitmix64), so adding a stream never shifts another stream's draws.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(tag.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The cube as a wire client knows it: the raw records to send, and a
/// schema holding exactly the values those records intern (a name the
/// server has never seen would answer `ERR`, and no operation may fail).
pub struct Cube {
    pub schema: CubeSchema,
    /// `records[i]` is `raw[i]` in `schema`'s id space.
    pub records: Vec<Record>,
    pub raw: Vec<RawRecord>,
}

/// The seed of the cube itself. `--seed` drives every *request* stream —
/// names drawn, run starts, Zipf draws — but the records are the same on
/// every seed: the load rate and the tree a load builds differ by ±10 %
/// between TPC-D seeds (measured: `ingest_rps` spread 12–19 % across ten
/// cube seeds, 2–6 % on one), which would drown what the metric is for.
pub const CUBE_SEED: u64 = 42;

impl Cube {
    /// `dc_tpcd::generate` of `base + held_out` records with the dimension
    /// cardinalities of `TpcdConfig::scaled(base, CUBE_SEED)`: the first
    /// `base` records — the same whatever `held_out` is — define the schema
    /// queries are generated from, the rest are held out for writers.
    pub fn generate(base: usize, held_out: usize) -> (Cube, Vec<RawRecord>) {
        let data = dc_tpcd::generate(&TpcdConfig {
            lineitems: base + held_out,
            ..TpcdConfig::scaled(base, CUBE_SEED)
        });
        let mut raw: Vec<RawRecord> = data
            .records
            .iter()
            .map(|r| (data.paths_for(r), r.measure))
            .collect();
        let held = raw.split_off(base);
        let mut schema = dc_tpcd::cube_schema();
        let records = raw
            .iter()
            .map(|(paths, m)| schema.intern_record(paths, *m).expect("tpcd paths intern"))
            .collect();
        (
            Cube {
                schema,
                records,
                raw,
            },
            held,
        )
    }
}

/// One `WHERE` predicate as generated: names on one hierarchy level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cond {
    pub dim: usize,
    pub level: Level,
    pub names: Vec<String>,
}

/// One generated statement: the text the server receives plus the
/// structure the oracle evaluates (independently of `dc_ql::resolve`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    pub text: String,
    pub ops: Vec<AggregateOp>,
    pub conds: Vec<Cond>,
    pub group_by: Option<(usize, Level)>,
    pub top: Option<usize>,
}

/// Quotes a value name as a dc-ql string literal (`'` doubled).
pub fn quote(name: &str) -> String {
    format!("'{}'", name.replace('\'', "''"))
}

fn path_text(schema: &CubeSchema, dim: usize, level: Level) -> String {
    let h = schema.dim(DimensionId(dim as u16)).schema();
    format!(
        "{}.{}",
        h.name(),
        h.attribute_name(level).expect("functional level")
    )
}

impl Query {
    fn new(
        schema: &CubeSchema,
        ops: Vec<AggregateOp>,
        conds: Vec<Cond>,
        group_by: Option<(usize, Level)>,
        top: Option<usize>,
    ) -> Query {
        let mut text = String::new();
        match ops.as_slice() {
            [op] => text.push_str(&op.to_string()),
            many => {
                text.push_str("SELECT ");
                for (i, op) in many.iter().enumerate() {
                    if i > 0 {
                        text.push_str(", ");
                    }
                    text.push_str(&op.to_string());
                }
            }
        }
        for (i, c) in conds.iter().enumerate() {
            text.push_str(if i == 0 { " WHERE " } else { " AND " });
            text.push_str(&path_text(schema, c.dim, c.level));
            match c.names.as_slice() {
                [one] => {
                    text.push_str(" = ");
                    text.push_str(&quote(one));
                }
                many => {
                    text.push_str(" IN (");
                    for (j, n) in many.iter().enumerate() {
                        if j > 0 {
                            text.push_str(", ");
                        }
                        text.push_str(&quote(n));
                    }
                    text.push(')');
                }
            }
        }
        if let Some((dim, level)) = group_by {
            text.push_str(" GROUP BY ");
            text.push_str(&path_text(schema, dim, level));
        }
        if let Some(k) = top {
            text.push_str(&format!(" TOP {k}"));
        }
        Query {
            text,
            ops,
            conds,
            group_by,
            top,
        }
    }

    /// Total names over all `IN`-lists (`ql.in_list_len`).
    pub fn in_list_len(&self) -> usize {
        self.conds.iter().map(|c| c.names.len()).sum()
    }
}

fn hierarchy(schema: &CubeSchema, dim: usize) -> &ConceptHierarchy {
    schema.dim(DimensionId(dim as u16))
}

/// `count` distinct names of `(dim, level)`, in draw order.
fn pick_names(
    schema: &CubeSchema,
    dim: usize,
    level: Level,
    count: usize,
    rng: &mut StdRng,
) -> Vec<String> {
    let h = hierarchy(schema, dim);
    let n = h.num_values_at(level);
    let mut names: Vec<String> = Vec::with_capacity(count);
    // Names repeat under different parents (every nation has the same five
    // segments), so draw until `count` distinct names or the level is spent.
    let mut tries = 0;
    while names.len() < count && tries < 16 * count {
        tries += 1;
        let v = ValueId::new(level, rng.gen_range(0..n) as u32);
        let name = h.name(v).expect("interned value has a name");
        if !names.iter().any(|x| x == name) {
            names.push(name.to_string());
        }
    }
    names
}

/// Dimension subsets of size 2 and 3 over the four TPC-D dimensions; the
/// narrow generator cycles through them.
const NARROW_SUBSETS: [&[usize]; 10] = [
    &[0, 1],
    &[0, 2],
    &[0, 3],
    &[1, 2],
    &[1, 3],
    &[2, 3],
    &[0, 1, 2],
    &[0, 1, 3],
    &[0, 2, 3],
    &[1, 2, 3],
];

/// `n` non-repeating drill-down queries. Query `i`'s shape — dimension
/// subset, level per dimension (never the leaf), list length 1..=4 — is a
/// function of `i` alone; the seed only picks the names.
pub fn narrow(schema: &CubeSchema, n: usize, seed: u64) -> Vec<Query> {
    assert!(
        schema.num_dims() == 4,
        "the narrow shapes assume the 4-d cube"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let ops = vec![
        AggregateOp::Sum,
        AggregateOp::Count,
        AggregateOp::Min,
        AggregateOp::Max,
    ];
    let mut i = 0usize;
    while out.len() < n {
        let subset = NARROW_SUBSETS[i % NARROW_SUBSETS.len()];
        let mut mix = i / NARROW_SUBSETS.len();
        let conds = subset
            .iter()
            .map(|&dim| {
                let upper = hierarchy(schema, dim).top_level() - 1; // levels 1..=upper
                let level = 1 + (mix % upper as usize) as Level;
                mix /= upper as usize;
                let len = 1 + mix % 4;
                mix /= 4;
                Cond {
                    dim,
                    level,
                    names: pick_names(schema, dim, level, len, &mut rng),
                }
            })
            .collect();
        let q = Query::new(schema, ops.clone(), conds, None, None);
        i += 1;
        if seen.insert(q.text.clone()) {
            out.push(q);
        }
        assert!(
            i < 64 * n + 1024,
            "narrow generator cannot find {n} distinct queries"
        );
    }
    out
}

/// The paper's three selectivities (§5.2).
pub const WIDE_SELECTIVITIES: [f64; 3] = [0.01, 0.05, 0.25];

/// The functional levels of `h` on which every name is carried by exactly
/// one value. dc-ql's `IN ('name')` admits *every* value of the level that
/// carries the name, so only on these levels does a run of value ids,
/// rendered as names, admit exactly that run: the 5 market segments repeat
/// under each nation and the 6 part types under each brand, and one segment
/// name would admit a fifth of its level whatever the target selectivity.
fn name_unique_levels(h: &ConceptHierarchy) -> Vec<Level> {
    (0..h.top_level())
        .filter(|&level| {
            let names: HashSet<&str> = h
                .values_at(level)
                .map(|v| h.name(v).expect("interned value has a name"))
                .collect();
            names.len() == h.num_values_at(level)
        })
        .collect()
}

/// The selectivity of wide query `i`: each of the three a third of the
/// time, shifted by one per cycle of level combinations so that every
/// combination meets every selectivity.
fn wide_selectivity(i: usize, combos: usize) -> f64 {
    WIDE_SELECTIVITIES[(i + i / combos) % WIDE_SELECTIVITIES.len()]
}

/// `n` §5.2 range queries as dc-ql text: every dimension constrained at a
/// functional level to a contiguous run of `selectivity × |level|` values
/// in id order (at least one, like `dc_query::RangeQueryGen`). The paper
/// draws the level of each dimension at random; here query `i`'s level
/// combination and selectivity are a function of `i` alone — every
/// combination of [name-unique](name_unique_levels) levels comes up once per
/// [`wide_level_combinations`] queries — so every seed poses the same shape
/// mix (a 25 % run at the leaf level costs a hundred times a 1 % run at the
/// top) and only where the runs start differs.
pub fn wide(schema: &CubeSchema, n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let levels: Vec<Vec<Level>> = schema.dims().map(name_unique_levels).collect();
    let combos = wide_level_combinations(schema);
    // A stride coprime to the 54 combinations of the TPC-D cube visits each
    // once per cycle, and consecutive queries differ in most dimensions.
    let stride = 37;
    (0..n)
        .map(|i| {
            let selectivity = wide_selectivity(i, combos);
            let mut combo = (i * stride) % combos;
            let conds = levels
                .iter()
                .enumerate()
                .map(|(dim, eligible)| {
                    let h = hierarchy(schema, dim);
                    let level = eligible[combo % eligible.len()];
                    combo /= eligible.len();
                    let count = h.num_values_at(level);
                    let take = ((count as f64 * selectivity).floor() as usize).clamp(1, count);
                    let start = rng.gen_range(0..=(count - take));
                    let names = h
                        .values_at(level)
                        .skip(start)
                        .take(take)
                        .map(|v| h.name(v).expect("interned value has a name").to_string())
                        .collect();
                    Cond { dim, level, names }
                })
                .collect();
            Query::new(schema, vec![AggregateOp::Sum], conds, None, None)
        })
        .collect()
}

/// Number of ways to pick one name-unique functional level per dimension
/// (54 for the TPC-D cube: 3 × 3 × 2 × 3).
pub fn wide_level_combinations(schema: &CubeSchema) -> usize {
    schema.dims().map(|h| name_unique_levels(h).len()).product()
}

/// Mean share of its level a predicate of `queries` admits, and the mean
/// selectivity the generator aimed for. The two differ only where 1 % of a
/// level is less than one value (five regions, seven years).
pub fn wide_selectivity_achieved(schema: &CubeSchema, queries: &[Query]) -> (f64, f64) {
    let combos = wide_level_combinations(schema);
    let (mut achieved, mut target, mut n) = (0.0, 0.0, 0usize);
    for (i, q) in queries.iter().enumerate() {
        for c in &q.conds {
            achieved +=
                c.names.len() as f64 / hierarchy(schema, c.dim).num_values_at(c.level) as f64;
            target += wide_selectivity(i, combos);
            n += 1;
        }
    }
    (achieved / n.max(1) as f64, target / n.max(1) as f64)
}

/// Number of dashboard templates.
pub const ROLLUP_TEMPLATES: usize = 256;

/// Query class of roll-up template `i` (they cycle).
pub const ROLLUP_CLASSES: [&str; 4] = ["scalar", "multi", "group_by", "top_k"];

/// The 256 dashboard templates, hottest first. Template `i`'s shape is a
/// function of `i` alone — class `i % 4` (scalar, multi-aggregate,
/// `GROUP BY`, `TOP 5`), one or two constrained dimensions, each at one of
/// its two coarsest levels, the group-by target and its level — so the hot
/// head of the Zipf mix costs the same on every seed; the seed picks the
/// one name each predicate admits.
pub fn rollups(schema: &CubeSchema, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = schema.num_dims();
    let coarse = |dim: usize, pick: usize| -> Level {
        let top = hierarchy(schema, dim).top_level();
        top - 1 - (pick % 2).min(top as usize - 1) as Level
    };
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(ROLLUP_TEMPLATES);
    let mut i = 0usize;
    while out.len() < ROLLUP_TEMPLATES {
        let class = out.len() % 4;
        let d0 = i % dims;
        let constrained: Vec<usize> = if (i / dims).is_multiple_of(2) {
            vec![d0]
        } else {
            vec![d0, (d0 + 1 + (i / (2 * dims)) % (dims - 1)) % dims]
        };
        let conds: Vec<Cond> = constrained
            .iter()
            .enumerate()
            .map(|(k, &dim)| {
                let level = coarse(dim, i / 8 + k);
                Cond {
                    dim,
                    level,
                    names: pick_names(schema, dim, level, 1, &mut rng),
                }
            })
            .collect();
        // Group on a dimension the filter leaves free, at a coarse level.
        let free = (0..dims)
            .map(|k| (d0 + 1 + k) % dims)
            .find(|d| !constrained.contains(d))
            .expect("at most two of four dimensions are constrained");
        let group = (free, coarse(free, i / 4));
        let (ops, group_by, top) = match class {
            0 => (vec![AggregateOp::Sum], None, None),
            1 => (
                vec![AggregateOp::Sum, AggregateOp::Count, AggregateOp::Avg],
                None,
                None,
            ),
            2 => (vec![AggregateOp::Sum], Some(group), None),
            _ => (
                vec![AggregateOp::Sum, AggregateOp::Count],
                Some(group),
                Some(5),
            ),
        };
        let q = Query::new(schema, ops, conds, group_by, top);
        i += 1;
        if seen.insert(q.text.clone()) {
            out.push(q);
        }
        assert!(
            i < 1 << 16,
            "roll-up generator cannot find 256 distinct templates"
        );
    }
    out
}

/// `n` Zipf(θ) draws over `templates` template indices.
pub fn zipf_draws(templates: usize, theta: f64, n: usize, seed: u64) -> Vec<usize> {
    let sampler = ZipfSampler::new(templates, theta);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| sampler.sample(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube() -> Cube {
        Cube::generate(3_000, 100).0
    }

    fn stream(seed: u64) -> Vec<String> {
        let c = cube();
        let mut all = Vec::new();
        all.extend(narrow(&c.schema, 120, sub_seed(seed, 1)));
        all.extend(wide(&c.schema, 30, sub_seed(seed, 2)));
        all.extend(rollups(&c.schema, sub_seed(seed, 3)));
        all.into_iter().map(|q| q.text).collect()
    }

    #[test]
    fn same_seed_same_bytes_different_seed_differs() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        assert_eq!(zipf_draws(256, 1.0, 500, 9), zipf_draws(256, 1.0, 500, 9));
        assert_ne!(zipf_draws(256, 1.0, 500, 9), zipf_draws(256, 1.0, 500, 10));
    }

    #[test]
    fn every_statement_parses_and_resolves_against_its_cube() {
        let c = cube();
        let mut all = narrow(&c.schema, 200, 1);
        all.extend(wide(&c.schema, 60, 2));
        all.extend(rollups(&c.schema, 3));
        for q in &all {
            let stmt =
                dc_ql::parse_statement(&q.text).unwrap_or_else(|e| panic!("{e}: {}", q.text));
            let resolved = dc_ql::resolve(&c.schema, stmt.body())
                .unwrap_or_else(|e| panic!("{e}: {}", q.text));
            assert_eq!(resolved.ops, q.ops);
            assert_eq!(
                resolved.group_by,
                q.group_by.map(|(d, l)| (DimensionId(d as u16), l))
            );
            assert_eq!(resolved.top, q.top);
            assert_eq!(resolved.joins.len(), q.conds.len());
        }
    }

    #[test]
    fn the_loaded_records_do_not_depend_on_how_many_are_held_out() {
        let (a, held_a) = Cube::generate(2_000, 10);
        let (b, held_b) = Cube::generate(2_000, 500);
        assert_eq!(a.raw, b.raw);
        assert_eq!(held_a[..], held_b[..10]);
    }

    #[test]
    fn narrow_queries_do_not_repeat_and_stay_off_the_leaf_level() {
        let c = cube();
        let qs = narrow(&c.schema, 400, 5);
        let distinct: HashSet<&str> = qs.iter().map(|q| q.text.as_str()).collect();
        assert_eq!(distinct.len(), qs.len());
        for q in &qs {
            assert!((2..=3).contains(&q.conds.len()));
            for cond in &q.conds {
                assert!(cond.level >= 1);
                assert!((1..=4).contains(&cond.names.len()));
            }
        }
    }

    #[test]
    fn wide_queries_constrain_every_dimension_and_cover_every_level_combination() {
        let c = cube();
        let combos = wide_level_combinations(&c.schema);
        assert_eq!(combos, 54);
        let qs = wide(&c.schema, combos, 5);
        let mut seen = HashSet::new();
        for q in &qs {
            assert_eq!(q.conds.len(), 4);
            seen.insert(q.conds.iter().map(|c| c.level).collect::<Vec<_>>());
        }
        assert_eq!(seen.len(), combos);
    }

    #[test]
    fn a_wide_predicate_admits_exactly_the_run_it_names() {
        let c = cube();
        let qs = wide(&c.schema, 3 * wide_level_combinations(&c.schema), 9);
        for q in &qs {
            let stmt = dc_ql::parse_statement(&q.text).unwrap();
            let resolved = dc_ql::resolve(&c.schema, stmt.body()).unwrap();
            for cond in &q.conds {
                // As many values admitted as names listed: no name repeats
                // on its level.
                let set = resolved.filter.dim(cond.dim);
                assert_eq!(set.len(), cond.names.len(), "{}", q.text);
            }
        }
        let (achieved, target) = wide_selectivity_achieved(&c.schema, &qs);
        assert!((target - (0.01 + 0.05 + 0.25) / 3.0).abs() < 1e-9);
        // Only the one-value minimum on tiny levels separates the two.
        assert!(achieved >= target && achieved < target + 0.05, "{achieved}");
    }

    #[test]
    fn quotes_are_doubled_and_survive_the_lexer() {
        assert_eq!(quote("it's"), "'it''s'");
        let mut schema = CubeSchema::new(
            vec![dc_hierarchy::HierarchySchema::new(
                "Shop",
                vec!["City".into(), "Name".into()],
            )],
            "Revenue",
        );
        schema
            .intern_record(&[vec!["Cork", "O'Brien's"]], 1)
            .unwrap();
        let q = Query::new(
            &schema,
            vec![AggregateOp::Sum],
            vec![Cond {
                dim: 0,
                level: 0,
                names: vec!["O'Brien's".into()],
            }],
            None,
            None,
        );
        assert_eq!(q.text, "SUM WHERE Shop.Name = 'O''Brien''s'");
        let stmt = dc_ql::parse_statement(&q.text).unwrap();
        assert_eq!(stmt.body().conditions[0].values, vec!["O'Brien's"]);
        dc_ql::resolve(&schema, stmt.body()).unwrap();
    }
}
