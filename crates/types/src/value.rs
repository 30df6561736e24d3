//! Runtime values (`Datum`) with SQL NULL.

use crate::date::Date;
use crate::decimal::Decimal;
use crate::schema::DataType;
use std::fmt;
use std::sync::Arc;

/// A single runtime value. `Null` is typeless, as in SQL.
///
/// 24 bytes: an 8-byte-aligned 16-byte payload (`Arc<str>` is a fat
/// pointer) plus the tag. [`Decimal`] is packed to 4-byte alignment so
/// its 20 bytes fit beside the tag; the assertion below pins the layout.
///
/// Strings use `Arc<str>` so that cloning a datum (e.g. into an intermediate
/// tuple held by a buffer operator) never copies string payloads — mirroring
/// the paper's pointer-based buffering, which copies no tuple bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Fixed-point decimal.
    Decimal(Decimal),
    /// Calendar date.
    Date(Date),
    /// UTF-8 string.
    Str(Arc<str>),
}

const _: () = assert!(std::mem::size_of::<Datum>() == 24);

impl Datum {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<Arc<str>>) -> Datum {
        Datum::Str(s.into())
    }

    /// True iff the datum is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// The datum's runtime type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Datum::Null => None,
            Datum::Bool(_) => Some(DataType::Bool),
            Datum::Int(_) => Some(DataType::Int),
            Datum::Float(_) => Some(DataType::Float),
            Datum::Decimal(_) => Some(DataType::Decimal),
            Datum::Date(_) => Some(DataType::Date),
            Datum::Str(_) => Some(DataType::Str),
        }
    }

    /// Integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Decimal payload, if this is a `Decimal`.
    pub fn as_decimal(&self) -> Option<Decimal> {
        match self {
            Datum::Decimal(v) => Some(*v),
            _ => None,
        }
    }

    /// Date payload, if this is a `Date`.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Datum::Date(v) => Some(*v),
            _ => None,
        }
    }

    /// Boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// String payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Float payload, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Datum::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Approximate in-memory size in bytes, used by the data-cache model to
    /// assign simulated addresses to tuple slots.
    pub fn simulated_width(&self) -> usize {
        match self {
            Datum::Null => 1,
            Datum::Bool(_) => 1,
            Datum::Int(_) => 8,
            Datum::Float(_) => 8,
            Datum::Decimal(_) => 16,
            Datum::Date(_) => 4,
            Datum::Str(s) => 16 + s.len(),
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Datum {
        Datum::Int(v)
    }
}

impl From<bool> for Datum {
    fn from(v: bool) -> Datum {
        Datum::Bool(v)
    }
}

impl From<f64> for Datum {
    fn from(v: f64) -> Datum {
        Datum::Float(v)
    }
}

impl From<Decimal> for Datum {
    fn from(v: Decimal) -> Datum {
        Datum::Decimal(v)
    }
}

impl From<Date> for Datum {
    fn from(v: Date) -> Datum {
        Datum::Date(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Datum {
        Datum::str(v)
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Bool(v) => write!(f, "{v}"),
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Float(v) => write!(f, "{v}"),
            Datum::Decimal(v) => write!(f, "{v}"),
            Datum::Date(v) => write!(f, "{v}"),
            Datum::Str(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_checks() {
        assert!(Datum::Null.is_null());
        assert!(!Datum::Int(0).is_null());
        assert_eq!(Datum::Null.data_type(), None);
    }

    #[test]
    fn accessors_are_type_strict() {
        assert_eq!(Datum::Int(7).as_int(), Some(7));
        assert_eq!(Datum::Int(7).as_bool(), None);
        assert_eq!(Datum::Bool(true).as_bool(), Some(true));
        assert_eq!(Datum::str("abc").as_str(), Some("abc"));
        assert_eq!(Datum::Float(1.5).as_float(), Some(1.5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Datum::Null.to_string(), "NULL");
        assert_eq!(Datum::Decimal(Decimal::from_cents(150)).to_string(), "1.50");
        assert_eq!(
            Datum::Date(Date::parse("1998-09-02").unwrap()).to_string(),
            "1998-09-02"
        );
    }

    #[test]
    fn string_clone_is_shallow() {
        let s = Datum::str("shared payload");
        let t = s.clone();
        match (&s, &t) {
            (Datum::Str(a), Datum::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn simulated_widths() {
        assert_eq!(Datum::Int(1).simulated_width(), 8);
        assert_eq!(Datum::str("abcd").simulated_width(), 20);
        assert_eq!(Datum::Null.simulated_width(), 1);
    }
}
