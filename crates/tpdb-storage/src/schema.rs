//! Relation schemas for the fact attributes of TP relations.

use crate::error::StorageError;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The data type of a fact attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit floating point.
    Float,
    /// UTF-8 string.
    Str,
}

impl DataType {
    /// Whether `value` is admissible for this type (NULL is admissible for
    /// every type).
    #[must_use]
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (DataType::Bool, Value::Bool(_))
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_))
                | (DataType::Float, Value::Int(_))
                | (DataType::Str, Value::Str(_))
        )
    }

    /// The type of a non-NULL value.
    #[must_use]
    pub fn of(value: &Value) -> Option<DataType> {
        match value {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Can a comparison between values of these types hold? Only within a
    /// type, or between `Int` and `Float`, which compare by exact value;
    /// across other types [`Value`]'s order is a type rank, so `=` would
    /// never hold and `<` would hold for every row.
    #[must_use]
    pub fn compares_with(self, other: DataType) -> bool {
        use DataType::{Float, Int};
        self == other || matches!((self, other), (Int, Float) | (Float, Int))
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
        };
        write!(f, "{s}")
    }
}

/// A named, typed fact attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Field {
    /// Attribute name.
    pub name: String,
    /// Attribute type.
    pub dtype: DataType,
}

impl Field {
    /// Creates a field.
    #[must_use]
    pub fn new(name: &str, dtype: DataType) -> Self {
        Self {
            name: name.to_owned(),
            dtype,
        }
    }
}

/// The schema of the fact part `F` of a TP relation.
///
/// The temporal attribute `T`, the lineage `λ` and the probability `p` are
/// implicit — every TP relation has them — so the schema only describes the
/// fact attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from a list of fields.
    #[must_use]
    pub fn new(fields: Vec<Field>) -> Self {
        Self { fields }
    }

    /// Convenience constructor from `(name, type)` pairs.
    #[must_use]
    pub fn tp(fields: &[(&str, DataType)]) -> Self {
        Self::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
    }

    /// The fields of the schema, in order.
    #[must_use]
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fact attributes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Position of the attribute called `name`.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Position of `name`, as an error-carrying lookup.
    pub fn require(&self, name: &str) -> Result<usize, StorageError> {
        self.index_of(name)
            .ok_or_else(|| StorageError::UnknownColumn(name.to_owned()))
    }

    /// Concatenates two schemas (used for join outputs `F_r ∘ F_s`). Columns
    /// of the right schema that collide with a left column name are prefixed
    /// with `prefix`.
    #[must_use]
    pub fn concat(&self, other: &Schema, prefix: &str) -> Schema {
        let mut fields = self.fields.clone();
        for f in &other.fields {
            let name = if self.index_of(&f.name).is_some() {
                format!("{prefix}{}", f.name)
            } else {
                f.name.clone()
            };
            fields.push(Field::new(&name, f.dtype));
        }
        Schema { fields }
    }

    /// Validates that `facts` matches the schema's arity and types.
    pub fn validate(&self, facts: &[Value]) -> Result<(), StorageError> {
        if facts.len() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                got: facts.len(),
            });
        }
        for (field, value) in self.fields.iter().zip(facts) {
            if !field.dtype.admits(value) {
                return Err(StorageError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.dtype,
                    got: format!("{value}"),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", field.name, field.dtype)?;
        }
        write!(f, ", λ, T, p)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup_and_arity() {
        let s = Schema::tp(&[("Name", DataType::Str), ("Loc", DataType::Str)]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.index_of("Loc"), Some(1));
        assert_eq!(s.index_of("Hotel"), None);
        assert!(s.require("Name").is_ok());
        assert!(matches!(
            s.require("missing"),
            Err(StorageError::UnknownColumn(_))
        ));
    }

    #[test]
    fn concat_prefixes_colliding_names() {
        let a = Schema::tp(&[("Name", DataType::Str), ("Loc", DataType::Str)]);
        let b = Schema::tp(&[("Hotel", DataType::Str), ("Loc", DataType::Str)]);
        let c = a.concat(&b, "b_");
        assert_eq!(c.arity(), 4);
        assert_eq!(c.fields()[2].name, "Hotel");
        assert_eq!(c.fields()[3].name, "b_Loc");
    }

    #[test]
    fn validation_checks_arity_and_types() {
        let s = Schema::tp(&[("Name", DataType::Str), ("Age", DataType::Int)]);
        assert!(s.validate(&[Value::str("Ann"), Value::Int(30)]).is_ok());
        assert!(s.validate(&[Value::str("Ann"), Value::Null]).is_ok());
        assert!(matches!(
            s.validate(&[Value::str("Ann")]),
            Err(StorageError::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            s.validate(&[Value::str("Ann"), Value::str("thirty")]),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn float_admits_int_widening() {
        let s = Schema::tp(&[("temp", DataType::Float)]);
        assert!(s.validate(&[Value::Int(3)]).is_ok());
    }

    #[test]
    fn display_includes_implicit_tp_attributes() {
        let s = Schema::tp(&[("Loc", DataType::Str)]);
        assert_eq!(s.to_string(), "(Loc STR, λ, T, p)");
    }
}
