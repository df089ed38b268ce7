//! Relational schemas: ordered, named, typed column lists.

use crate::error::{Result, StorageError};
use crate::types::DataType;
use crate::value::Row;

/// Definition of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (case-preserving, matched case-insensitively).
    pub name: String,
    /// Column type.
    pub ty: DataType,
    /// Whether NULLs are rejected on insert.
    pub not_null: bool,
}

impl ColumnDef {
    /// A nullable column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef { name: name.into(), ty, not_null: false }
    }

    /// A NOT NULL column.
    pub fn not_null(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef { name: name.into(), ty, not_null: true }
    }
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema from column definitions.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        Schema { columns }
    }

    /// Shorthand: schema from `(name, type)` pairs, all nullable.
    pub fn of(cols: &[(&str, DataType)]) -> Self {
        Schema {
            columns: cols.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// All column definitions in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Position of `name` (case-insensitive), or an error.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| StorageError::UnknownColumn(name.to_owned()))
    }

    /// Column definition for `name`.
    pub fn column(&self, name: &str) -> Result<&ColumnDef> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// Column definition at position `i`.
    pub fn column_at(&self, i: usize) -> &ColumnDef {
        &self.columns[i]
    }

    /// Check a row against arity, types (with implicit casts) and NOT NULL.
    pub fn validate_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                found: row.len(),
            });
        }
        for (value, def) in row.iter().zip(&self.columns) {
            if value.is_null() {
                if def.not_null {
                    return Err(StorageError::NullViolation(def.name.clone()));
                }
                continue;
            }
            if !value.fits(def.ty) {
                return Err(StorageError::TypeMismatch {
                    expected: def.ty,
                    found: value.data_type().unwrap_or(def.ty),
                });
            }
        }
        Ok(())
    }

    /// Columnar analogue of [`validate_row`](Self::validate_row): check a
    /// whole decoded [`Chunk`](crate::chunk::Chunk) against this schema in
    /// O(arity) — exact arity, exact column types (wire decoding already
    /// produced typed columns, so no per-cell coercion applies), and no
    /// NULL slot under a NOT NULL column. Gate for the binary `PUSH`
    /// ingest path, which appends columns wholesale without ever
    /// materializing rows.
    pub fn validate_chunk(&self, chunk: &crate::chunk::Chunk) -> Result<()> {
        if chunk.arity() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                found: chunk.arity(),
            });
        }
        for (col, def) in chunk.columns().iter().zip(&self.columns) {
            if col.data_type() != def.ty {
                return Err(StorageError::TypeMismatch {
                    expected: def.ty,
                    found: col.data_type(),
                });
            }
            if def.not_null && col.has_nulls() {
                return Err(StorageError::NullViolation(def.name.clone()));
            }
        }
        Ok(())
    }

    /// Append another schema's columns (for join output schemas). Columns
    /// from `other` that clash by name get `prefix.` prepended.
    pub fn concat(&self, other: &Schema, prefix: &str) -> Schema {
        let mut columns = self.columns.clone();
        for c in &other.columns {
            let clash = columns.iter().any(|x| x.name.eq_ignore_ascii_case(&c.name));
            let name = if clash { format!("{prefix}.{}", c.name) } else { c.name.clone() };
            columns.push(ColumnDef { name, ty: c.ty, not_null: c.not_null });
        }
        Schema { columns }
    }
}

impl std::fmt::Display for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
            if c.not_null {
                write!(f, " NOT NULL")?;
            }
        }
        write!(f, ")")
    }
}

/// Validate many rows at once; reports the first offending row index.
pub fn validate_rows(schema: &Schema, rows: &[Row]) -> Result<()> {
    for row in rows {
        schema.validate_row(row)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("temp", DataType::Float),
            ColumnDef::new("tag", DataType::Str),
        ])
    }

    #[test]
    fn index_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.index_of("ID").unwrap(), 0);
        assert_eq!(s.index_of("Temp").unwrap(), 1);
        assert!(s.index_of("missing").is_err());
    }

    #[test]
    fn validate_accepts_good_row() {
        let s = schema();
        s.validate_row(&vec![Value::Int(1), Value::Float(2.5), Value::Str("a".into())])
            .unwrap();
        // int→float coercion allowed
        s.validate_row(&vec![Value::Int(1), Value::Int(2), Value::Null]).unwrap();
    }

    #[test]
    fn validate_rejects_arity() {
        let s = schema();
        assert!(matches!(
            s.validate_row(&vec![Value::Int(1)]),
            Err(StorageError::ArityMismatch { expected: 3, found: 1 })
        ));
    }

    #[test]
    fn validate_rejects_null_in_not_null() {
        let s = schema();
        assert!(matches!(
            s.validate_row(&vec![Value::Null, Value::Null, Value::Null]),
            Err(StorageError::NullViolation(_))
        ));
    }

    #[test]
    fn validate_rejects_type_mismatch() {
        let s = schema();
        assert!(matches!(
            s.validate_row(&vec![Value::Str("x".into()), Value::Null, Value::Null]),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn concat_prefixes_clashes() {
        let a = Schema::of(&[("id", DataType::Int), ("v", DataType::Float)]);
        let b = Schema::of(&[("id", DataType::Int), ("w", DataType::Float)]);
        let j = a.concat(&b, "r");
        assert_eq!(j.arity(), 4);
        assert_eq!(j.column_at(2).name, "r.id");
        assert_eq!(j.column_at(3).name, "w");
    }

    #[test]
    fn display_renders_sql() {
        let s = Schema::of(&[("a", DataType::Int)]);
        assert_eq!(s.to_string(), "(a BIGINT)");
    }
}
