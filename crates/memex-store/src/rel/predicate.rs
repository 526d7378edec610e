//! Row predicates with a tiny boolean algebra, plus the analysis the
//! executor uses to pick an index access path.

use crate::rel::schema::Schema;
use crate::rel::value::Value;

/// Comparison operators on a single column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A filter over rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches everything.
    True,
    /// `column <op> literal`.
    Cmp {
        col: String,
        op: CmpOp,
        value: Value,
    },
    /// Substring match on a Text column (case-sensitive).
    Contains {
        col: String,
        needle: String,
    },
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
    Not(Box<Predicate>),
}

impl Predicate {
    /// `col == value` convenience.
    pub fn eq(col: &str, value: Value) -> Predicate {
        Predicate::Cmp {
            col: col.to_string(),
            op: CmpOp::Eq,
            value,
        }
    }

    pub fn cmp(col: &str, op: CmpOp, value: Value) -> Predicate {
        Predicate::Cmp {
            col: col.to_string(),
            op,
            value,
        }
    }

    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    #[allow(clippy::should_implement_trait)] // builder-style peer of `and`/`or`
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluate against a row. Unknown columns or type mismatches are
    /// simply `false` (three-valued logic collapsed to false, as the
    /// metadata engine's callers expect).
    pub fn matches(&self, schema: &Schema, row: &[Value]) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp { col, op, value } => {
                let Some(ord) = cell(schema, row, col).and_then(|c| compare(c, value)) else {
                    return false;
                };
                match op {
                    CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                    CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    CmpOp::Ge => ord != std::cmp::Ordering::Less,
                }
            }
            Predicate::Contains { col, needle } => cell(schema, row, col)
                .and_then(Value::as_text)
                .is_some_and(|t| t.contains(needle.as_str())),
            Predicate::And(a, b) => a.matches(schema, row) && b.matches(schema, row),
            Predicate::Or(a, b) => a.matches(schema, row) || b.matches(schema, row),
            Predicate::Not(p) => !p.matches(schema, row),
        }
    }

    /// If this predicate (or a conjunct of it) is `col == v`, return
    /// `(col, v)` — the executor turns that into an index point lookup.
    pub fn index_point(&self) -> Option<(&str, &Value)> {
        match self {
            Predicate::Cmp {
                col,
                op: CmpOp::Eq,
                value,
            } => Some((col, value)),
            Predicate::And(a, b) => a.index_point().or_else(|| b.index_point()),
            _ => None,
        }
    }
}

/// The row's value in column `col`; `None` for an unknown column or a row
/// shorter than its schema.
fn cell<'r>(schema: &Schema, row: &'r [Value], col: &str) -> Option<&'r Value> {
    row.get(schema.col_index(col).ok()?)
}

/// Compare same-typed values; `None` on cross-type or Null comparisons.
fn compare(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    use Value::*;
    match (a, b) {
        (Int(x), Int(y)) => Some(x.cmp(y)),
        (Float(x), Float(y)) => x.partial_cmp(y),
        (Text(x), Text(y)) => Some(x.cmp(y)),
        (Bool(x), Bool(y)) => Some(x.cmp(y)),
        (Bytes(x), Bytes(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::schema::{Column, Schema};
    use crate::rel::value::ColType;

    fn schema() -> Schema {
        Schema::new(
            "visits",
            vec![
                Column::new("url", ColType::Text),
                Column::new("user", ColType::Int),
                Column::new("bytes", ColType::Int),
            ],
        )
        .unwrap()
    }

    fn row(url: &str, user: i64, bytes: i64) -> Vec<Value> {
        vec![Value::Text(url.into()), Value::Int(user), Value::Int(bytes)]
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row("http://music.example/bach", 3, 1200);
        assert!(Predicate::eq("user", Value::Int(3)).matches(&s, &r));
        assert!(!Predicate::eq("user", Value::Int(4)).matches(&s, &r));
        assert!(Predicate::cmp("bytes", CmpOp::Ge, Value::Int(1200)).matches(&s, &r));
        assert!(Predicate::cmp("bytes", CmpOp::Lt, Value::Int(1201)).matches(&s, &r));
        assert!(Predicate::cmp("bytes", CmpOp::Ne, Value::Int(0)).matches(&s, &r));
    }

    #[test]
    fn boolean_algebra() {
        let s = schema();
        let r = row("u", 1, 10);
        let p = Predicate::eq("user", Value::Int(1)).and(Predicate::cmp(
            "bytes",
            CmpOp::Gt,
            Value::Int(5),
        ));
        assert!(p.matches(&s, &r));
        let q = Predicate::eq("user", Value::Int(2)).or(Predicate::eq("user", Value::Int(1)));
        assert!(q.matches(&s, &r));
        assert!(!q.clone().not().matches(&s, &r));
    }

    #[test]
    fn contains_on_text() {
        let s = schema();
        let r = row("http://music.example/bach", 1, 1);
        assert!(Predicate::Contains {
            col: "url".into(),
            needle: "bach".into()
        }
        .matches(&s, &r));
        assert!(!Predicate::Contains {
            col: "url".into(),
            needle: "jazz".into()
        }
        .matches(&s, &r));
        // Contains on a non-text column is just false.
        assert!(!Predicate::Contains {
            col: "user".into(),
            needle: "1".into()
        }
        .matches(&s, &r));
    }

    #[test]
    fn cross_type_comparison_is_false() {
        let s = schema();
        let r = row("u", 1, 10);
        assert!(!Predicate::eq("url", Value::Int(1)).matches(&s, &r));
        assert!(!Predicate::eq("missing", Value::Int(1)).matches(&s, &r));
    }

    #[test]
    fn index_point_extraction() {
        let p = Predicate::eq("user", Value::Int(7)).and(Predicate::cmp(
            "bytes",
            CmpOp::Gt,
            Value::Int(5),
        ));
        let (col, v) = p.index_point().unwrap();
        assert_eq!(col, "user");
        assert_eq!(v, &Value::Int(7));
        assert!(Predicate::cmp("bytes", CmpOp::Gt, Value::Int(5))
            .index_point()
            .is_none());
    }
}
