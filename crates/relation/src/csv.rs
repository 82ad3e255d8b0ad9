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
use std::borrow::Cow;

/// The records of a CSV text: every field in order, each one a slice of
/// the input except a field that is not one contiguous run of it (a
/// doubled quote, a stray `\r`, text after a closing quote), which owns a
/// copy.
struct Records<'a> {
    fields: Vec<Cow<'a, str>>,
    /// `ends[r]` is one past record `r`'s last field in `fields`.
    ends: Vec<usize>,
}

impl<'a> Records<'a> {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn record(&self, r: usize) -> &[Cow<'a, str>] {
        let start = if r == 0 { 0 } else { self.ends[r - 1] };
        &self.fields[start..self.ends[r]]
    }
}

/// The field being read: a `start..end` range of the input until a byte
/// outside that range joins it, then an owned copy.
#[derive(Default)]
struct FieldBuf {
    start: usize,
    end: usize,
    owned: Option<String>,
}

impl FieldBuf {
    fn is_empty(&self) -> bool {
        match &self.owned {
            Some(text) => text.is_empty(),
            None => self.start == self.end,
        }
    }

    /// Append `text[from..to]`.
    fn push(&mut self, text: &str, from: usize, to: usize) {
        if from == to {
            return;
        }
        match &mut self.owned {
            Some(owned) => owned.push_str(&text[from..to]),
            None if self.start == self.end => {
                self.start = from;
                self.end = to;
            }
            None if self.end == from => self.end = to,
            None => {
                let mut owned = String::with_capacity(self.end - self.start + to - from);
                owned.push_str(&text[self.start..self.end]);
                owned.push_str(&text[from..to]);
                self.owned = Some(owned);
            }
        }
    }

    fn take<'a>(&mut self, text: &'a str) -> Cow<'a, str> {
        let field = match self.owned.take() {
            Some(owned) => Cow::Owned(owned),
            None => Cow::Borrowed(&text[self.start..self.end]),
        };
        self.start = 0;
        self.end = 0;
        field
    }
}

/// The end of the run starting at `from` that holds none of `stop`.
fn run_end(bytes: &[u8], from: usize, stop: impl Fn(u8) -> bool) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| stop(b))
        .map_or(bytes.len(), |n| from + n)
}

/// Split CSV text into records of fields.
///
/// Every structural character is ASCII, so the scan runs over bytes and
/// copies runs between them as slices. A `\r` outside quotes is dropped
/// wherever it appears. Returns an error for an unterminated quoted field
/// or a quote in the middle of an unquoted field.
fn tokenize(text: &str) -> Result<Records<'_>> {
    let bytes = text.as_bytes();
    let mut records = Records {
        fields: Vec::new(),
        ends: Vec::new(),
    };
    let mut field = FieldBuf::default();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut i = 0;
    while i < bytes.len() {
        if in_quotes {
            let end = run_end(bytes, i, |b| b == b'"' || b == b'\n');
            field.push(text, i, end);
            i = end;
            match bytes.get(i) {
                None => break,
                Some(b'"') if bytes.get(i + 1) == Some(&b'"') => {
                    field.push(text, i, i + 1);
                    i += 2;
                }
                Some(b'"') => {
                    in_quotes = false;
                    i += 1;
                }
                Some(_) => {
                    line += 1;
                    field.push(text, i, i + 1);
                    i += 1;
                }
            }
        } else {
            let end = run_end(bytes, i, |b| matches!(b, b'"' | b',' | b'\r' | b'\n'));
            field.push(text, i, end);
            i = end;
            match bytes.get(i) {
                None => break,
                Some(b'"') => {
                    if !field.is_empty() {
                        return Err(RelationError::Csv {
                            line,
                            message: "quote in the middle of an unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                }
                Some(b',') => records.fields.push(field.take(text)),
                Some(b'\n') => {
                    records.fields.push(field.take(text));
                    records.ends.push(records.fields.len());
                    line += 1;
                }
                // `\r`: swallowed; the following `\n` ends the record.
                Some(_) => {}
            }
            i += 1;
        }
    }
    if in_quotes {
        return Err(RelationError::Csv {
            line,
            message: "unterminated quoted field".into(),
        });
    }
    let open_record = records.fields.len() > records.ends.last().copied().unwrap_or(0);
    if !text.is_empty() && (!field.is_empty() || open_record) {
        records.fields.push(field.take(text));
        records.ends.push(records.fields.len());
    }
    Ok(records)
}

/// A field's inferred type, with its value when parsing found one, so a
/// field is parsed once: `Int`, then `Float`, then `Bool`
/// (case-insensitive `true`/`false`), else `Text`; blank is `Null`.
#[derive(Debug, Clone, Copy)]
enum Scalar {
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    Text,
}

impl Scalar {
    fn classify(raw: &str) -> Scalar {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            Scalar::Null
        } else if let Ok(i) = trimmed.parse::<i64>() {
            Scalar::Int(i)
        } else if let Ok(x) = trimmed.parse::<f64>() {
            Scalar::Float(x)
        } else if trimmed.eq_ignore_ascii_case("true") {
            Scalar::Bool(true)
        } else if trimmed.eq_ignore_ascii_case("false") {
            Scalar::Bool(false)
        } else {
            Scalar::Text
        }
    }

    fn data_type(self) -> Option<DataType> {
        match self {
            Scalar::Null => None,
            Scalar::Int(_) => Some(DataType::Int),
            Scalar::Float(_) => Some(DataType::Float),
            Scalar::Bool(_) => Some(DataType::Bool),
            Scalar::Text => Some(DataType::Text),
        }
    }

    /// The value of the field in a column of type `dtype`, or `None` if
    /// the field does not parse as that type.
    fn value(self, raw: &str, dtype: DataType) -> Option<Value> {
        Some(match (self, dtype) {
            (Scalar::Null, _) => Value::Null,
            (Scalar::Int(i), DataType::Int) => Value::Int(i),
            // The correctly rounded float of the integer, as parsing the
            // text as a float gives, signed zero included.
            (Scalar::Int(i), DataType::Float) => {
                if i == 0 && raw.trim().starts_with('-') {
                    Value::Float(-0.0)
                } else {
                    Value::Float(i as f64)
                }
            }
            (Scalar::Float(x), DataType::Float) => Value::Float(x),
            (Scalar::Bool(b), DataType::Bool) => Value::Bool(b),
            (_, DataType::Text) => Value::text(raw.trim()),
            _ => return None,
        })
    }
}

/// Read a relation from CSV text, inferring a column type from the observed
/// values: a column is `Int` if every non-empty field parses as an integer,
/// else `Float` if every non-empty field parses as a number, else `Bool` if
/// every non-empty field is `true`/`false`, else `Text`.
pub fn read_relation(name: impl Into<String>, text: &str) -> Result<Relation> {
    let records = tokenize(text)?;
    let name = name.into();
    if records.ends.is_empty() {
        return Err(RelationError::Csv {
            line: 1,
            message: "missing header record".into(),
        });
    }
    let header = records.record(0);
    let body = records.ends[0]..records.fields.len();

    // Classify every body field once; a column takes the widest type seen.
    let scalars: Vec<Scalar> = records.fields[body.clone()]
        .iter()
        .map(|f| Scalar::classify(f))
        .collect();
    let mut types: Vec<Option<DataType>> = vec![None; header.len()];
    for r in 1..records.len() {
        let start = records.ends[r - 1] - body.start;
        let fields = records.ends[r] - records.ends[r - 1];
        for (ty, s) in types.iter_mut().zip(&scalars[start..start + fields]) {
            if let Some(observed) = s.data_type() {
                *ty = Some(ty.map_or(observed, |current| widen(current, observed)));
            }
        }
    }
    let types: Vec<DataType> = types
        .into_iter()
        .map(|t| t.unwrap_or(DataType::Text))
        .collect();

    let schema = RelationSchema::new(
        name.clone(),
        header
            .iter()
            .zip(&types)
            .map(|(h, &t)| Attribute::new(h.trim(), t))
            .collect(),
    )?;

    let mut rel = Relation::empty(schema);
    rel.reserve(records.len() - 1);
    for r in 1..records.len() {
        let rec = records.record(r);
        if rec.len() != header.len() {
            return Err(RelationError::Csv {
                line: r + 1,
                message: format!("expected {} fields, found {}", header.len(), rec.len()),
            });
        }
        let start = records.ends[r - 1] - body.start;
        let mut values: Vec<Value> = Vec::with_capacity(types.len());
        for ((raw, s), &t) in rec.iter().zip(&scalars[start..]).zip(&types) {
            values.push(s.value(raw, t).ok_or_else(|| RelationError::Csv {
                line: r + 1,
                message: format!("field `{raw}` does not parse as {t}"),
            })?);
        }
        rel.push(Tuple::new(values))?;
    }
    Ok(rel)
}

/// Read a relation from CSV text against an explicitly declared schema
/// (header names must match the schema's attribute names, in order).
pub fn read_relation_typed(schema: RelationSchema, text: &str) -> Result<Relation> {
    let records = tokenize(text)?;
    if records.ends.is_empty() {
        return Err(RelationError::Csv {
            line: 1,
            message: "missing header record".into(),
        });
    }
    let header = records.record(0);
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
    let types: Vec<DataType> = schema.attributes().iter().map(|a| a.dtype).collect();
    let mut rel = Relation::empty(schema);
    rel.reserve(records.len() - 1);
    for r in 1..records.len() {
        let rec = records.record(r);
        if rec.len() != types.len() {
            return Err(RelationError::Csv {
                line: r + 1,
                message: format!("expected {} fields, found {}", types.len(), rec.len()),
            });
        }
        let mut values: Vec<Value> = Vec::with_capacity(types.len());
        for (raw, &t) in rec.iter().zip(&types) {
            values.push(Value::parse_as(raw, t).ok_or_else(|| RelationError::Csv {
                line: r + 1,
                message: format!("field `{raw}` does not parse as {t}"),
            })?);
        }
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
    use proptest::prelude::*;

    /// The reader this module replaced, kept as the oracle its tokenizer
    /// and type inference are pinned to: every field a `String`, types
    /// inferred through `Value::infer`.
    mod oracle {
        use crate::error::{RelationError, Result};
        use crate::relation::Relation;
        use crate::schema::{Attribute, RelationSchema};
        use crate::tuple::Tuple;
        use crate::value::{DataType, Value};

        use super::super::widen;

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
                    let observed =
                        Value::infer(raw)
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
    }

    /// Field shapes the two readers must agree on: every inferred type,
    /// signed zero and a 2⁵³+1 integer, blanks, quotes, doubled quotes,
    /// embedded commas, newlines and `\r`, text after a closing quote, and
    /// the two malformed quotes.
    const FIELDS: &[&str] = &[
        "",
        "  ",
        "1",
        "-0",
        "+7",
        "007",
        " 42 ",
        "9007199254740993",
        "2.5",
        "-1e3",
        "1.0",
        "NaN",
        "inf",
        "true",
        "FALSE",
        " True ",
        "abc",
        "x y",
        "\"a,b\"",
        "\"say \"\"hi\"\"\"",
        "\"two\nlines\"",
        "\"\"",
        "\"q\"tail",
        "a\rb",
        "\"cr\r\"",
        "é",
        "\"é,ü\"",
        "a\"b",
        "\"open",
    ];

    const HEADERS: &[&str] = &["a", "b", " c ", "\"d,e\"", "a", "f"];

    /// A CSV text: a header of 1–3 columns, up to 5 records of fields from
    /// [`FIELDS`] (now and then ragged), `\n` or `\r\n` endings, with or
    /// without a final line ending.
    fn csv_text() -> impl Strategy<Value = String> {
        (
            1usize..=3,
            proptest::collection::vec(proptest::collection::vec(0usize..64, 0..5), 0..6),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(cols, rows, crlf, trailing)| {
                let eol = if crlf { "\r\n" } else { "\n" };
                let header: Vec<&str> = (0..cols)
                    .map(|c| HEADERS[(c * 2 + rows.len()) % HEADERS.len()])
                    .collect();
                let mut text = header.join(",");
                for (r, row) in rows.iter().enumerate() {
                    text.push_str(eol);
                    let ragged = row.first().is_some_and(|&i| i % 11 == 0);
                    let width = if ragged { row.len() } else { cols };
                    let fields: Vec<&str> = (0..width)
                        .map(|c| FIELDS[row.get(c).copied().unwrap_or(c + r) % FIELDS.len()])
                        .collect();
                    text.push_str(&fields.join(","));
                }
                if trailing {
                    text.push_str(eol);
                }
                text
            })
    }

    /// Arbitrary short texts over the structural characters.
    fn csv_noise() -> impl Strategy<Value = String> {
        const ALPHABET: [char; 10] = ['a', '1', ',', '"', '\n', '\r', ' ', '.', '-', 'é'];
        proptest::collection::vec(0usize..ALPHABET.len(), 0..40)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    /// Both readers on `text`: the same fields, the same relation or the
    /// same error (message and line), typed reads included.
    fn agree_with_the_oracle(text: &str, typed: usize) {
        let fields = tokenize(text).map(|records| {
            (0..records.len())
                .map(|r| records.record(r).iter().map(|f| f.to_string()).collect())
                .collect::<Vec<Vec<String>>>()
        });
        assert_eq!(fields, oracle::parse_records(text), "{text:?}");
        assert_eq!(
            read_relation("t", text),
            oracle::read_relation("t", text),
            "{text:?}"
        );
        let Ok(records) = oracle::parse_records(text) else {
            return;
        };
        let Some(header) = records.first() else {
            return;
        };
        let types = [
            DataType::Int,
            DataType::Float,
            DataType::Bool,
            DataType::Text,
        ];
        let attrs: Vec<(&str, DataType)> = header
            .iter()
            .enumerate()
            .map(|(c, h)| (h.trim(), types[(typed + c) % types.len()]))
            .collect();
        if let Ok(schema) = RelationSchema::of("t", &attrs) {
            assert_eq!(
                read_relation_typed(schema.clone(), text),
                oracle::read_relation_typed(schema, text),
                "{text:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Generated tables read the same through both readers.
        #[test]
        fn reader_matches_the_string_reader(text in csv_text(), typed in 0usize..4) {
            agree_with_the_oracle(&text, typed);
        }

        /// So do arbitrary arrangements of the structural characters.
        #[test]
        fn reader_matches_the_string_reader_on_noise(text in csv_noise(), typed in 0usize..4) {
            agree_with_the_oracle(&text, typed);
        }
    }

    #[test]
    fn fields_borrow_the_input_unless_they_cannot() {
        let text = "a,\"b,c\",\"d\"\"e\",f\rg,\"h\"i\n";
        let records = tokenize(text).unwrap();
        let kinds: Vec<bool> = records
            .record(0)
            .iter()
            .map(|f| matches!(f, Cow::Borrowed(_)))
            .collect();
        assert_eq!(kinds, vec![true, true, false, false, false]);
        let fields: Vec<&str> = records.record(0).iter().map(|f| f.as_ref()).collect();
        assert_eq!(fields, vec!["a", "b,c", "d\"e", "fg", "hi"]);
    }

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
        assert!(tokenize("a\n\"oops").is_err());
    }

    #[test]
    fn stray_quote_is_error() {
        assert!(tokenize("a\nb\"c\n").is_err());
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
