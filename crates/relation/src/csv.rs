//! Minimal CSV reading/writing (RFC-4180 subset, hand-rolled — no external
//! dependency is available offline for this).
//!
//! Supports quoted fields with embedded commas, doubled quotes, and both
//! `\n` and `\r\n` line endings. The first record is the header; column
//! types are inferred (or supplied explicitly via [`read_relation_typed`]).

use crate::error::{RelationError, Result};
use crate::relation::Relation;
use crate::schema::{Attribute, RelationSchema};
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// Split CSV text into records of raw string fields.
///
/// Returns an error for an unterminated quoted field or stray quote.
pub fn parse_records(text: &str) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut chars = text.chars().peekable();
    let mut any = false;

    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if !field.is_empty() {
                        return Err(RelationError::Csv {
                            line,
                            message: "quote in the middle of an unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {
                    // Swallow; the following '\n' terminates the record.
                }
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                    line += 1;
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(RelationError::Csv {
            line,
            message: "unterminated quoted field".into(),
        });
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

/// Read a relation from CSV text, inferring a column type from the observed
/// values: a column is `Int` if every non-empty field parses as an integer,
/// else `Float` if every non-empty field parses as a number, else `Bool` if
/// every non-empty field is `true`/`false`, else `Text`.
pub fn read_relation(name: impl Into<String>, text: &str) -> Result<Relation> {
    let records = parse_records(text)?;
    let name = name.into();
    let mut it = records.into_iter();
    let header = it.next().ok_or(RelationError::Csv {
        line: 1,
        message: "missing header record".into(),
    })?;
    let body: Vec<Vec<String>> = it.collect();

    let mut types = vec![DataType::Text; header.len()];
    for (col, ty) in types.iter_mut().enumerate() {
        let mut current: Option<DataType> = None;
        for (i, rec) in body.iter().enumerate() {
            let raw = rec.get(col).map(String::as_str).unwrap_or("");
            if raw.trim().is_empty() {
                continue;
            }
            let observed = Value::infer(raw)
                .data_type()
                .ok_or_else(|| RelationError::Csv {
                    line: i + 2,
                    message: format!("field `{raw}` infers to no type"),
                })?;
            current = Some(match current {
                None => observed,
                Some(c) => widen(c, observed),
            });
        }
        *ty = current.unwrap_or(DataType::Text);
    }

    let schema = RelationSchema::new(
        name.clone(),
        header
            .iter()
            .zip(&types)
            .map(|(h, &t)| Attribute::new(h.trim(), t))
            .collect(),
    )?;

    let mut rel = Relation::empty(schema);
    rel.reserve(body.len());
    for (i, rec) in body.iter().enumerate() {
        if rec.len() != header.len() {
            return Err(RelationError::Csv {
                line: i + 2,
                message: format!("expected {} fields, found {}", header.len(), rec.len()),
            });
        }
        let values: Vec<Value> = rec
            .iter()
            .zip(&types)
            .map(|(raw, &t)| {
                Value::parse_as(raw, t).ok_or_else(|| RelationError::Csv {
                    line: i + 2,
                    message: format!("field `{raw}` does not parse as {t}"),
                })
            })
            .collect::<Result<_>>()?;
        rel.push(Tuple::new(values))?;
    }
    Ok(rel)
}

/// Read a relation from CSV text against an explicitly declared schema
/// (header names must match the schema's attribute names, in order).
pub fn read_relation_typed(schema: RelationSchema, text: &str) -> Result<Relation> {
    let records = parse_records(text)?;
    let mut it = records.into_iter();
    let header = it.next().ok_or(RelationError::Csv {
        line: 1,
        message: "missing header record".into(),
    })?;
    if header.len() != schema.arity()
        || header
            .iter()
            .zip(schema.attributes())
            .any(|(h, a)| h.trim() != a.name)
    {
        return Err(RelationError::Csv {
            line: 1,
            message: format!("header does not match schema `{schema}`"),
        });
    }
    let mut rel = Relation::empty(schema);
    for (i, rec) in it.enumerate() {
        if rec.len() != rel.schema().arity() {
            return Err(RelationError::Csv {
                line: i + 2,
                message: format!(
                    "expected {} fields, found {}",
                    rel.schema().arity(),
                    rec.len()
                ),
            });
        }
        let values: Vec<Value> = rec
            .iter()
            .zip(rel.schema().attributes().to_vec())
            .map(|(raw, attr)| {
                Value::parse_as(raw, attr.dtype).ok_or_else(|| RelationError::Csv {
                    line: i + 2,
                    message: format!("field `{raw}` does not parse as {}", attr.dtype),
                })
            })
            .collect::<Result<_>>()?;
        rel.push(Tuple::new(values))?;
    }
    Ok(rel)
}

/// Serialize a relation to CSV text (header + records, quoting only when
/// needed).
pub fn write_relation(rel: &Relation) -> String {
    let mut out = String::new();
    let header: Vec<&str> = rel
        .schema()
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    push_record(&mut out, header.iter().map(|s| s.to_string()));
    for row in rel.rows() {
        push_record(&mut out, row.values().iter().map(|v| v.to_string()));
    }
    out
}

fn push_record(out: &mut String, fields: impl Iterator<Item = String>) {
    let mut first = true;
    for f in fields {
        if !first {
            out.push(',');
        }
        first = false;
        if f.contains(',') || f.contains('"') || f.contains('\n') {
            out.push('"');
            out.push_str(&f.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(&f);
        }
    }
    out.push('\n');
}

/// The widest of the current column type and a newly observed value's type.
fn widen(current: DataType, observed: DataType) -> DataType {
    use DataType::*;
    match (current, observed) {
        (Int, Float) | (Float, Int) => Float,
        _ if current == observed => current,
        _ => Text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn round_trip_simple() {
        let text = "From,To,Airline\nParis,Lille,AF\nNYC,Paris,AA\n";
        let rel = read_relation("flights", text).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.schema().attributes()[0].dtype, DataType::Text);
        assert_eq!(write_relation(&rel), text);
    }

    #[test]
    fn infers_int_float_bool() {
        let text = "a,b,c,d\n1,1.5,true,x\n2,2,false,y\n";
        let rel = read_relation("t", text).unwrap();
        let types: Vec<DataType> = rel.schema().attributes().iter().map(|a| a.dtype).collect();
        assert_eq!(
            types,
            vec![
                DataType::Int,
                DataType::Float,
                DataType::Bool,
                DataType::Text
            ]
        );
        assert_eq!(rel.row(0).unwrap()[0], Value::Int(1));
        assert_eq!(rel.row(1).unwrap()[1], Value::Float(2.0));
    }

    #[test]
    fn quoted_fields() {
        let text = "name,notes\n\"Lille, FR\",\"said \"\"hi\"\"\"\n";
        let rel = read_relation("t", text).unwrap();
        assert_eq!(rel.row(0).unwrap()[0], Value::text("Lille, FR"));
        assert_eq!(rel.row(0).unwrap()[1], Value::text("said \"hi\""));
    }

    #[test]
    fn quoted_round_trip() {
        let text = "name\n\"a,b\"\n";
        let rel = read_relation("t", text).unwrap();
        assert_eq!(write_relation(&rel), text);
    }

    #[test]
    fn empty_fields_become_null() {
        let text = "a,b\n1,\n,x\n";
        let rel = read_relation("t", text).unwrap();
        assert!(rel.row(0).unwrap()[1].is_null());
        assert!(rel.row(1).unwrap()[0].is_null());
        // Column a still inferred Int from the non-empty field.
        assert_eq!(rel.schema().attributes()[0].dtype, DataType::Int);
    }

    #[test]
    fn crlf_line_endings() {
        let text = "a,b\r\n1,2\r\n";
        let rel = read_relation("t", text).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.row(0).unwrap()[1], Value::Int(2));
    }

    #[test]
    fn missing_trailing_newline() {
        let text = "a\n1\n2";
        let rel = read_relation("t", text).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn ragged_record_is_error() {
        let text = "a,b\n1\n";
        assert!(matches!(
            read_relation("t", text),
            Err(RelationError::Csv { line: 2, .. })
        ));
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(parse_records("a\n\"oops").is_err());
    }

    #[test]
    fn stray_quote_is_error() {
        assert!(parse_records("a\nb\"c\n").is_err());
    }

    #[test]
    fn typed_read_checks_header() {
        let schema = RelationSchema::of("t", &[("a", DataType::Int)]).unwrap();
        assert!(read_relation_typed(schema.clone(), "a\n7\n").is_ok());
        assert!(read_relation_typed(schema.clone(), "b\n7\n").is_err());
        assert!(read_relation_typed(schema, "a\nxyz\n").is_err());
    }

    #[test]
    fn typed_read_values() {
        let schema =
            RelationSchema::of("t", &[("a", DataType::Int), ("b", DataType::Text)]).unwrap();
        let rel = read_relation_typed(schema, "a,b\n7,7\n").unwrap();
        assert_eq!(rel.row(0).unwrap(), &tup![7i64, "7"]);
    }

    #[test]
    fn empty_input_is_error() {
        assert!(read_relation("t", "").is_err());
    }

    #[test]
    fn header_only_gives_empty_relation() {
        let rel = read_relation("t", "a,b\n").unwrap();
        assert!(rel.is_empty());
        // Columns with no observed values default to Text.
        assert_eq!(rel.schema().attributes()[0].dtype, DataType::Text);
    }
}
