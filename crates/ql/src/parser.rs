//! Recursive-descent parser and name resolution.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! statement  := 'EXPLAIN'? body
//! body       := 'SELECT' agg (',' agg)* tail      // multi-aggregate form
//!             | agg tail                          // legacy single-aggregate
//! agg        := 'SUM' | 'COUNT' | 'AVG' | 'MIN' | 'MAX'
//! tail       := where? group? ('TOP' int)?
//! where      := 'WHERE' condition ('AND' condition)*
//! condition  := path 'IN' '(' value (',' value)* ')'
//!             | path '=' value
//! group      := 'GROUP' 'BY' path
//! path       := ident '.' ident          // Dimension.Attribute
//! value      := string | ident           // 'EUROPE' or 1996-03
//! ```
//!
//! Parsing is schema-free ([`parse_statement`]); name resolution happens in
//! a second phase ([`resolve`]). Several conditions may constrain the same
//! dimension: resolution performs a star-schema semi-join through the
//! dimension's concept hierarchy — the finest constrained attribute supplies
//! the candidate values, and every coarser condition filters them by
//! ancestor membership (exactly the restriction a join against the
//! denormalized dimension table would produce).

use std::collections::HashMap;

use dc_common::{AggregateOp, DimensionId, ValueId};
use dc_hierarchy::{ConceptHierarchy, CubeSchema};
use dc_mds::{DimSet, Mds};

use crate::ast::{
    JoinInfo, ParsedQuery, ParsedStatement, QlError, RawCondition, RawPath, SelectBody, Statement,
};
use crate::lexer::{tokenize, Token};

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// Parses one statement (no schema needed; names stay raw strings).
pub fn parse_statement(input: &str) -> Result<Statement, QlError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let s = p.statement()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("expected end of statement"));
    }
    Ok(s)
}

/// Resolves a statement body's names against `schema`, joining multiple
/// conditions on one dimension through its hierarchy.
pub fn resolve(schema: &CubeSchema, body: &SelectBody) -> Result<ParsedStatement, QlError> {
    Resolver { schema }.resolve(body)
}

/// Parses and resolves one single-aggregate query against `schema` — the
/// original dc-ql entry point, kept source-compatible. Multi-aggregate
/// `SELECT` and `EXPLAIN` statements are rejected here; use
/// [`parse_statement`] + [`resolve`] for those.
pub fn parse_query(schema: &CubeSchema, input: &str) -> Result<ParsedQuery, QlError> {
    let stmt = parse_statement(input)?;
    if stmt.is_explain() {
        return Err(QlError::Parse {
            near: "EXPLAIN".into(),
            message: "EXPLAIN is not supported by parse_query".into(),
        });
    }
    let resolved = resolve(schema, stmt.body())?;
    if resolved.ops.len() != 1 {
        return Err(QlError::Parse {
            near: "SELECT".into(),
            message: "parse_query accepts exactly one aggregate".into(),
        });
    }
    Ok(ParsedQuery {
        op: resolved.ops[0],
        filter: resolved.filter,
        group_by: resolved.group_by,
        top: resolved.top,
    })
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: &str) -> QlError {
        QlError::Parse {
            near: self
                .peek()
                .map(Token::render)
                .unwrap_or_else(|| "<end>".into()),
            message: message.into(),
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn ident(&mut self, what: &str) -> Result<String, QlError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(&format!("expected {what}")))
            }
        }
    }

    fn value_name(&mut self) -> Result<String, QlError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(s),
            Some(Token::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a value (quoted string or bare name)"))
            }
        }
    }

    fn statement(&mut self) -> Result<Statement, QlError> {
        let explain = self.keyword("EXPLAIN");
        let body = self.body()?;
        Ok(if explain {
            Statement::Explain(body)
        } else {
            Statement::Select(body)
        })
    }

    fn body(&mut self) -> Result<SelectBody, QlError> {
        let ops = if self.keyword("SELECT") {
            let mut ops = vec![self.aggregate()?];
            while self.peek() == Some(&Token::Comma) {
                self.pos += 1;
                let op = self.aggregate()?;
                if ops.contains(&op) {
                    return Err(QlError::Parse {
                        near: op.to_string(),
                        message: "aggregate requested twice".into(),
                    });
                }
                ops.push(op);
            }
            ops
        } else {
            vec![self.aggregate()?]
        };

        let mut conditions = Vec::new();
        if self.keyword("WHERE") {
            loop {
                conditions.push(self.condition()?);
                if !self.keyword("AND") {
                    break;
                }
            }
        }
        let group_by = if self.keyword("GROUP") {
            if !self.keyword("BY") {
                return Err(self.err("expected BY after GROUP"));
            }
            Some(self.path()?)
        } else {
            None
        };
        let top = if self.keyword("TOP") {
            if group_by.is_none() {
                return Err(self.err("TOP requires GROUP BY"));
            }
            let n = self.ident("a positive count after TOP")?;
            let n: usize = n.parse().map_err(|_| QlError::Parse {
                near: n.clone(),
                message: "TOP expects a positive integer".into(),
            })?;
            if n == 0 {
                return Err(QlError::Parse {
                    near: "0".into(),
                    message: "TOP expects a positive integer".into(),
                });
            }
            Some(n)
        } else {
            None
        };
        Ok(SelectBody {
            ops,
            conditions,
            group_by,
            top,
        })
    }

    fn aggregate(&mut self) -> Result<AggregateOp, QlError> {
        let name = self.ident("an aggregate (SUM, COUNT, AVG, MIN, MAX)")?;
        match name.to_ascii_uppercase().as_str() {
            "SUM" => Ok(AggregateOp::Sum),
            "COUNT" => Ok(AggregateOp::Count),
            "AVG" => Ok(AggregateOp::Avg),
            "MIN" => Ok(AggregateOp::Min),
            "MAX" => Ok(AggregateOp::Max),
            _ => Err(QlError::Parse {
                near: name,
                message: "expected an aggregate (SUM, COUNT, AVG, MIN, MAX)".into(),
            }),
        }
    }

    /// `Dimension.Attribute`, raw.
    fn path(&mut self) -> Result<RawPath, QlError> {
        let dimension = self.ident("a dimension name")?;
        if self.next() != Some(Token::Dot) {
            self.pos = self.pos.saturating_sub(1);
            return Err(self.err("expected `.` after the dimension name"));
        }
        let attribute = self.ident("an attribute name")?;
        Ok(RawPath {
            dimension,
            attribute,
        })
    }

    fn condition(&mut self) -> Result<RawCondition, QlError> {
        let path = self.path()?;
        let values: Vec<String> = if self.keyword("IN") {
            if self.next() != Some(Token::LParen) {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("expected `(` after IN"));
            }
            let mut names = vec![self.value_name()?];
            loop {
                match self.next() {
                    Some(Token::Comma) => names.push(self.value_name()?),
                    Some(Token::RParen) => break,
                    _ => {
                        self.pos = self.pos.saturating_sub(1);
                        return Err(self.err("expected `,` or `)` in the IN list"));
                    }
                }
            }
            names
        } else if self.next() == Some(Token::Eq) {
            vec![self.value_name()?]
        } else {
            self.pos = self.pos.saturating_sub(1);
            return Err(self.err("expected IN (...) or = after the attribute"));
        };
        Ok(RawCondition { path, values })
    }
}

struct Resolver<'a> {
    schema: &'a CubeSchema,
}

impl<'a> Resolver<'a> {
    fn resolve(&self, body: &SelectBody) -> Result<ParsedStatement, QlError> {
        // Gather the resolved conditions per dimension, in statement order.
        let mut per_dim: Vec<Vec<DimSet>> = vec![Vec::new(); self.schema.num_dims()];
        for cond in &body.conditions {
            let (dim, set) = self.condition(cond)?;
            per_dim[dim.as_usize()].push(set);
        }

        let mut joins = Vec::new();
        let mut dims = Vec::with_capacity(self.schema.num_dims());
        for (d, sets) in per_dim.into_iter().enumerate() {
            let dim = DimensionId(d as u16);
            let h = self.schema.dim(dim);
            if sets.is_empty() {
                dims.push(DimSet::singleton(h.all()));
                continue;
            }
            let predicates = sets.len();
            let merged = self.join_dimension(h, sets)?;
            joins.push(JoinInfo {
                dim,
                predicates,
                level: merged.level(),
                values: merged.len(),
            });
            dims.push(merged);
        }

        let group_by = match &body.group_by {
            Some(p) => {
                let (dim, level, _) = self.lookup_path(p)?;
                Some((dim, level))
            }
            None => None,
        };
        Ok(ParsedStatement {
            ops: body.ops.clone(),
            filter: Mds::new(dims),
            group_by,
            top: body.top,
            joins,
        })
    }

    fn lookup_path(&self, p: &RawPath) -> Result<(DimensionId, u8, &'a ConceptHierarchy), QlError> {
        let dim = self
            .schema
            .dims()
            .position(|h| h.schema().name().eq_ignore_ascii_case(&p.dimension))
            .ok_or_else(|| QlError::UnknownDimension(p.dimension.clone()))?;
        let h = self.schema.dim(DimensionId(dim as u16));
        let level = (0..h.top_level())
            .find(|&l| {
                h.schema()
                    .attribute_name(l)
                    .is_some_and(|a| a.eq_ignore_ascii_case(&p.attribute))
            })
            .ok_or_else(|| QlError::UnknownAttribute {
                dimension: p.dimension.clone(),
                attribute: p.attribute.clone(),
            })?;
        Ok((DimensionId(dim as u16), level, h))
    }

    /// One condition resolved to the values it names on its level.
    fn condition(&self, cond: &RawCondition) -> Result<(DimensionId, DimSet), QlError> {
        let (dim, level, h) = self.lookup_path(&cond.path)?;
        // Every value with a listed name on the level qualifies (names can
        // repeat under different parents, e.g. month '03'): one pass over
        // the level, each name marked once it matches.
        let mut matched: HashMap<&str, bool> =
            cond.values.iter().map(|n| (n.as_str(), false)).collect();
        let mut values: Vec<ValueId> = Vec::new();
        for v in h.values_at(level) {
            if let Some(hit) = h.name(v).ok().and_then(|n| matched.get_mut(n)) {
                *hit = true;
                values.push(v);
            }
        }
        if let Some(name) = cond.values.iter().find(|n| !matched[n.as_str()]) {
            return Err(QlError::UnknownValue {
                dimension: h.schema().name().to_string(),
                attribute: h.schema().attribute_name(level).unwrap_or("?").to_string(),
                value: name.clone(),
            });
        }
        Ok((dim, DimSet::new(level, values)))
    }

    /// Joins all of one dimension's resolved conditions into a single
    /// DimSet at the finest constrained level: candidates come from the
    /// finest condition(s); coarser conditions keep a candidate only when
    /// its ancestor at their level is admitted (the dimension-table
    /// semi-join of a star schema).
    fn join_dimension(
        &self,
        h: &ConceptHierarchy,
        mut sets: Vec<DimSet>,
    ) -> Result<DimSet, QlError> {
        sets.sort_by_key(DimSet::level);
        let finest = sets[0].level();
        let mut candidates: Vec<ValueId> = sets[0].values().to_vec();
        for set in &sets[1..] {
            if set.level() == finest {
                candidates.retain(|&v| set.contains_value(v));
            } else {
                candidates.retain(|&v| {
                    h.ancestor_at(v, set.level())
                        .is_ok_and(|a| set.contains_value(a))
                });
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            return Err(QlError::EmptySelection(h.schema().name().to_string()));
        }
        Ok(DimSet::new(finest, candidates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_hierarchy::HierarchySchema;

    fn schema() -> CubeSchema {
        let mut s = CubeSchema::new(
            vec![
                HierarchySchema::new("Customer", vec!["Region".into(), "Nation".into()]),
                HierarchySchema::new("Time", vec!["Year".into(), "Month".into()]),
            ],
            "Revenue",
        );
        for (r, n, y, m) in [
            ("EUROPE", "GERMANY", "1996", "03"),
            ("EUROPE", "FRANCE", "1996", "07"),
            ("ASIA", "JAPAN", "1997", "03"),
        ] {
            s.intern_record(&[vec![r, n], vec![y, m]], 1).unwrap();
        }
        s
    }

    #[test]
    fn parses_full_query() {
        let s = schema();
        let q = parse_query(
            &s,
            "sum where Customer.Region in ('EUROPE') and Time.Year = '1996'",
        )
        .unwrap();
        assert_eq!(q.op, AggregateOp::Sum);
        assert_eq!(q.filter.dim(0).len(), 1);
        assert_eq!(q.filter.dim(0).level(), 1);
        assert_eq!(q.filter.dim(1).level(), 1);
        assert!(q.group_by.is_none());
    }

    #[test]
    fn bare_aggregate_is_unconstrained() {
        let s = schema();
        let q = parse_query(&s, "COUNT").unwrap();
        assert_eq!(q.op, AggregateOp::Count);
        for (d, h) in s.dims().enumerate() {
            assert_eq!(q.filter.dim(d).values(), &[h.all()]);
        }
    }

    #[test]
    fn repeating_names_match_every_parent() {
        let s = schema();
        // Month '03' exists under 1996 and 1997.
        let q = parse_query(&s, "SUM WHERE Time.Month = '03'").unwrap();
        assert_eq!(q.filter.dim(1).len(), 2);
        assert_eq!(q.filter.dim(1).level(), 0);
    }

    #[test]
    fn an_in_list_resolves_in_one_pass() {
        let s = schema();
        // Repeated names are harmless; every month named qualifies.
        let q = parse_query(&s, "SUM WHERE Time.Month IN ('07', '03', '03')").unwrap();
        assert_eq!(q.filter.dim(1).len(), 3);
        // The error names the first unknown name in statement order.
        match parse_query(&s, "SUM WHERE Time.Month IN ('03', 'YY', '07', 'XX')") {
            Err(QlError::UnknownValue { value, .. }) => assert_eq!(value, "YY"),
            other => panic!("expected UnknownValue, got {other:?}"),
        }
    }

    #[test]
    fn group_by_resolves_level() {
        let s = schema();
        let q = parse_query(&s, "AVG GROUP BY Customer.Nation").unwrap();
        assert_eq!(q.group_by, Some((DimensionId(0), 0)));
        let q = parse_query(&s, "AVG GROUP BY Customer.Region").unwrap();
        assert_eq!(q.group_by, Some((DimensionId(0), 1)));
    }

    #[test]
    fn top_k_parses_and_validates() {
        let s = schema();
        let q = parse_query(&s, "SUM GROUP BY Customer.Region TOP 3").unwrap();
        assert_eq!(q.top, Some(3));
        assert!(q.group_by.is_some());
        assert!(
            parse_query(&s, "SUM TOP 3").is_err(),
            "TOP without GROUP BY"
        );
        assert!(parse_query(&s, "SUM GROUP BY Customer.Region TOP 0").is_err());
        assert!(parse_query(&s, "SUM GROUP BY Customer.Region TOP x").is_err());
    }

    #[test]
    fn bare_identifiers_work_as_values() {
        let s = schema();
        let q = parse_query(&s, "SUM WHERE Time.Year IN (1996, 1997)").unwrap();
        assert_eq!(q.filter.dim(1).len(), 2);
    }

    #[test]
    fn select_multi_aggregate_parses() {
        let s = schema();
        let stmt =
            parse_statement("SELECT SUM, COUNT, MAX WHERE Customer.Region = 'EUROPE'").unwrap();
        let r = resolve(&s, stmt.body()).unwrap();
        assert_eq!(
            r.ops,
            vec![AggregateOp::Sum, AggregateOp::Count, AggregateOp::Max]
        );
        assert!(parse_statement("SELECT SUM, SUM").is_err(), "duplicate agg");
        assert!(
            parse_query(&s, "SELECT SUM, COUNT").is_err(),
            "parse_query is single-aggregate"
        );
    }

    #[test]
    fn explain_wraps_any_body() {
        let s = schema();
        let stmt = parse_statement("EXPLAIN SELECT SUM GROUP BY Customer.Region").unwrap();
        assert!(stmt.is_explain());
        assert!(resolve(&s, stmt.body()).is_ok());
        assert!(parse_query(&s, "EXPLAIN SUM").is_err());
    }

    #[test]
    fn same_dimension_conditions_join_through_the_hierarchy() {
        let s = schema();
        // Region narrows the Nation candidates: GERMANY is in EUROPE.
        let q = parse_query(
            &s,
            "SUM WHERE Customer.Region = 'EUROPE' AND Customer.Nation = 'GERMANY'",
        )
        .unwrap();
        assert_eq!(q.filter.dim(0).level(), 0);
        assert_eq!(q.filter.dim(0).len(), 1);
        // Contradiction: JAPAN is not in EUROPE.
        assert!(matches!(
            parse_query(
                &s,
                "SUM WHERE Customer.Region = 'EUROPE' AND Customer.Nation = 'JAPAN'"
            ),
            Err(QlError::EmptySelection(_))
        ));
        // Two finest-level conditions intersect.
        let q = parse_query(
            &s,
            "SUM WHERE Customer.Nation IN ('GERMANY', 'FRANCE') AND Customer.Nation IN ('FRANCE', 'JAPAN')",
        )
        .unwrap();
        assert_eq!(q.filter.dim(0).len(), 1);
    }

    #[test]
    fn join_summaries_record_the_semi_join() {
        let s = schema();
        let stmt = parse_statement(
            "SELECT SUM WHERE Customer.Region = 'EUROPE' AND Customer.Nation IN ('GERMANY', 'FRANCE')",
        )
        .unwrap();
        let r = resolve(&s, stmt.body()).unwrap();
        assert_eq!(r.joins.len(), 1);
        assert_eq!(r.joins[0].dim, DimensionId(0));
        assert_eq!(r.joins[0].predicates, 2);
        assert_eq!(r.joins[0].level, 0);
        assert_eq!(r.joins[0].values, 2);
    }

    #[test]
    fn error_paths_are_reported() {
        let s = schema();
        assert!(matches!(
            parse_query(&s, "FROB"),
            Err(QlError::Parse { .. })
        ));
        assert!(matches!(
            parse_query(&s, "SUM WHERE Nope.Region = 'EUROPE'"),
            Err(QlError::UnknownDimension(_))
        ));
        assert!(matches!(
            parse_query(&s, "SUM WHERE Customer.Shoe = 'EUROPE'"),
            Err(QlError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            parse_query(&s, "SUM WHERE Customer.Region = 'ATLANTIS'"),
            Err(QlError::UnknownValue { .. })
        ));
        assert!(matches!(
            parse_query(&s, "SUM trailing"),
            Err(QlError::Parse { .. })
        ));
        assert!(matches!(
            parse_statement("SELECT"),
            Err(QlError::Parse { .. })
        ));
        assert!(matches!(
            parse_statement("EXPLAIN"),
            Err(QlError::Parse { .. })
        ));
        assert!(matches!(
            parse_statement("SELECT SUM,"),
            Err(QlError::Parse { .. })
        ));
    }

    #[test]
    fn statements_round_trip_through_pretty_print() {
        for text in [
            "SELECT SUM",
            "SELECT SUM, COUNT WHERE Customer.Region = 'EUROPE'",
            "EXPLAIN SELECT AVG WHERE Time.Year IN ('1996', '1997') GROUP BY Customer.Nation TOP 5",
            "SELECT MIN WHERE Customer.Region IN ('EUROPE', 'MIDDLE EAST') AND Time.Month = 'it''s'",
        ] {
            let stmt = parse_statement(text).unwrap();
            let pretty = stmt.to_string();
            let again = parse_statement(&pretty).unwrap();
            assert_eq!(stmt, again, "round-trip of `{text}` via `{pretty}`");
        }
        // Legacy form canonicalizes to SELECT but stays semantically equal.
        let legacy = parse_statement("SUM WHERE Customer.Region = 'EUROPE'").unwrap();
        let canon = parse_statement(&legacy.to_string()).unwrap();
        assert_eq!(legacy, canon);
    }
}
