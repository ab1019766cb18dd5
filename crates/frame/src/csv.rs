//! Minimal CSV reader/writer with type inference.
//!
//! Examples write generated scenario datasets to disk so users can
//! inspect the passing/failing data the framework reasons about, and
//! read datasets back in. The dialect is RFC-4180-ish: comma
//! separator, double-quote quoting with `""` escapes (a quoted field
//! may span lines), `\n`/`\r\n` records; empty fields are NULL.

use crate::builder::DataFrameBuilder;
use crate::dtype::DType;
use crate::error::{FrameError, Result};
use crate::frame::DataFrame;
use crate::value::Value;
use std::io::{Read, Write};
use std::path::Path;

/// Split a CSV document into records of fields, honoring quotes: a
/// quoted field may hold separators, `""` escapes and line breaks.
/// Each record comes with the 1-based line it starts on. Blank lines
/// are skipped but still counted, so a line number always points at
/// the line of the document.
fn split_records(text: &str) -> Result<Vec<(usize, Vec<String>)>> {
    let err = |line: usize, msg: &str| FrameError::Csv(format!("line {line}: {msg}"));
    let mut records = Vec::new();
    let mut fields = Vec::new();
    let mut cur = String::new();
    let (mut line, mut start) = (1, 1);
    let (mut in_quotes, mut blank) = (false, true);
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    cur.push('"');
                    chars.next();
                }
                '"' => in_quotes = false,
                _ => cur.push(c),
            }
            line += usize::from(c == '\n');
            continue;
        }
        match c {
            '\r' if chars.peek() == Some(&'\n') => continue,
            '\n' => {
                if !blank {
                    fields.push(std::mem::take(&mut cur));
                    records.push((start, std::mem::take(&mut fields)));
                }
                line += 1;
                (start, blank) = (line, true);
                continue;
            }
            '"' if cur.is_empty() => in_quotes = true,
            '"' => return Err(err(line, "quote inside unquoted field")),
            ',' => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
        blank = false;
    }
    if in_quotes {
        return Err(err(start, "unclosed quote"));
    }
    if !blank {
        fields.push(cur);
        records.push((start, fields));
    }
    Ok(records)
}

fn quote_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Infer a column dtype from raw string fields (empty = NULL).
///
/// Ints that all parse stay `Int`; otherwise floats; otherwise
/// `true`/`false` booleans; string columns become `Categorical` when
/// the distinct-value count is small relative to the data, `Text`
/// otherwise.
fn infer_dtype(raw: &[Option<&str>]) -> DType {
    let present: Vec<&str> = raw.iter().flatten().copied().collect();
    if present.is_empty() {
        return DType::Text;
    }
    if present.iter().all(|s| s.parse::<i64>().is_ok()) {
        return DType::Int;
    }
    if present.iter().all(|s| s.parse::<f64>().is_ok()) {
        return DType::Float;
    }
    if present
        .iter()
        .all(|s| s.eq_ignore_ascii_case("true") || s.eq_ignore_ascii_case("false"))
    {
        return DType::Bool;
    }
    let distinct: std::collections::HashSet<&str> = present.iter().copied().collect();
    // Heuristic mirroring common profilers: low cardinality => category.
    if distinct.len() <= 20 || distinct.len() * 2 <= present.len() {
        DType::Categorical
    } else {
        DType::Text
    }
}

fn parse_value(raw: Option<&str>, dtype: DType, column: &str) -> Result<Value> {
    let Some(s) = raw else { return Ok(Value::Null) };
    match dtype {
        DType::Int => s
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| FrameError::TypeMismatch {
                column: column.to_string(),
                expected: "Int".into(),
                found: s.to_string(),
            }),
        DType::Float => s
            .parse::<f64>()
            .map(Value::from)
            .map_err(|_| FrameError::TypeMismatch {
                column: column.to_string(),
                expected: "Float".into(),
                found: s.to_string(),
            }),
        DType::Bool => {
            if s.eq_ignore_ascii_case("true") {
                Ok(Value::Bool(true))
            } else if s.eq_ignore_ascii_case("false") {
                Ok(Value::Bool(false))
            } else {
                Err(FrameError::TypeMismatch {
                    column: column.to_string(),
                    expected: "Bool".into(),
                    found: s.to_string(),
                })
            }
        }
        DType::Categorical | DType::Text => Ok(Value::Str(s.to_string())),
    }
}

/// A header and its raw records, each with the line it starts on.
type Records = (Vec<String>, Vec<(usize, Vec<Option<String>>)>);

/// Split a CSV document into its header and raw records: blank lines
/// skipped, empty fields as `None`, every record as wide as the
/// header, and no header name repeated.
fn read_records<R: Read>(mut reader: R) -> Result<Records> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    let mut records = split_records(&text)?.into_iter();
    let Some((_, header)) = records.next() else {
        return Err(FrameError::Csv("empty document".into()));
    };
    let mut seen = std::collections::HashSet::new();
    if let Some(repeated) = header.iter().find(|h| !seen.insert(h.as_str())) {
        return Err(FrameError::DuplicateColumn(repeated.clone()));
    }
    let n_cols = header.len();
    let mut rows = Vec::with_capacity(records.len());
    for (line, fields) in records {
        if fields.len() != n_cols {
            return Err(FrameError::Csv(format!(
                "line {line}: expected {n_cols} fields, found {}",
                fields.len()
            )));
        }
        let cells = fields
            .into_iter()
            .map(|f| if f.is_empty() { None } else { Some(f) })
            .collect();
        rows.push((line, cells));
    }
    Ok((header, rows))
}

/// Build a frame of `fields` from raw records, parsing each cell as
/// its column's dtype.
fn build_frame(
    fields: &[(&str, DType)],
    rows: &[(usize, Vec<Option<String>>)],
) -> Result<DataFrame> {
    let mut builder = DataFrameBuilder::with_fields(fields);
    for (line, raw) in rows {
        let row = raw
            .iter()
            .zip(fields)
            .map(|(cell, (name, dtype))| {
                parse_value(cell.as_deref(), *dtype, name)
                    .map_err(|e| FrameError::Csv(format!("line {line}: {e}")))
            })
            .collect::<Result<Vec<Value>>>()?;
        builder.push_row(row)?;
    }
    Ok(builder.build())
}

/// Read a CSV document (header row required) with dtype inference.
/// A header that repeats a name is refused with
/// [`FrameError::DuplicateColumn`].
pub fn read_csv<R: Read>(reader: R) -> Result<DataFrame> {
    let (header, rows) = read_records(reader)?;
    let fields: Vec<(&str, DType)> = header
        .iter()
        .enumerate()
        .map(|(j, name)| {
            let cells: Vec<Option<&str>> = rows.iter().map(|(_, r)| r[j].as_deref()).collect();
            (name.as_str(), infer_dtype(&cells))
        })
        .collect();
    build_frame(&fields, &rows)
}

/// Read a CSV file from a path.
pub fn read_csv_path<P: AsRef<Path>>(path: P) -> Result<DataFrame> {
    let file = std::fs::File::open(path)?;
    read_csv(file)
}

/// Write a frame as CSV (header + rows; NULL as empty field).
/// [`read_csv_with_schema`] under the frame's own schema reads the
/// text back equal to `df`, as long as no string cell is empty (an
/// empty field reads as NULL). A cell holding a separator, quote or
/// line break is quoted.
pub fn write_csv<W: Write>(df: &DataFrame, mut writer: W) -> Result<()> {
    let names: Vec<String> = df.columns().iter().map(|c| quote_field(c.name())).collect();
    writeln!(writer, "{}", names.join(","))?;
    for i in 0..df.n_rows() {
        let row: Vec<String> = df
            .columns()
            .iter()
            .map(|c| {
                let v = c.get(i);
                if v.is_null() {
                    String::new()
                } else {
                    quote_field(&v.to_string())
                }
            })
            .collect();
        // A one-column NULL row would be an empty line, which readers
        // skip; a quoted empty field keeps the row.
        if row.len() == 1 && row[0].is_empty() {
            writeln!(writer, "\"\"")?;
        } else {
            writeln!(writer, "{}", row.join(","))?;
        }
    }
    Ok(())
}

/// Write a frame as a CSV file at `path`.
pub fn write_csv_path<P: AsRef<Path>>(df: &DataFrame, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_csv(df, std::io::BufWriter::new(file))
}

/// Explicit-schema variant of [`read_csv`]: no inference, every cell
/// parses straight as its declared dtype, so text cells keep their
/// exact characters (`"01004"` stays `"01004"`) and a cell that does
/// not parse as its numeric or boolean dtype is an error, never a
/// silent NULL. The header must carry the `(name, dtype)` list's
/// names, in order.
pub fn read_csv_with_schema<R: Read>(reader: R, fields: &[(&str, DType)]) -> Result<DataFrame> {
    let (header, rows) = read_records(reader)?;
    if header.len() != fields.len() {
        return Err(FrameError::Csv(format!(
            "schema has {} columns, file has {}",
            fields.len(),
            header.len()
        )));
    }
    for (found, (name, _)) in header.iter().zip(fields) {
        if found != name {
            return Err(FrameError::Csv(format!(
                "expected column {name:?}, file has {found:?}"
            )));
        }
    }
    build_frame(fields, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_with_nulls_and_quotes() {
        let mut df = DataFrame::new();
        df.add_column(Column::from_ints("age", vec![Some(30), None]))
            .unwrap();
        df.add_column(Column::from_strings(
            "note",
            DType::Text,
            vec![Some("hello, \"world\"".into()), Some("plain".into())],
        ))
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&df, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("\"hello, \"\"world\"\"\""));
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(back.n_rows(), 2);
        assert_eq!(back.cell(0, "age").unwrap(), Value::Int(30));
        assert!(back.cell(1, "age").unwrap().is_null());
        assert_eq!(
            back.cell(0, "note").unwrap(),
            Value::Str("hello, \"world\"".into())
        );
    }

    #[test]
    fn infers_types() {
        let csv = "a,b,c,d\n1,1.5,true,x\n2,2.5,false,y\n3,,true,x\n";
        let df = read_csv(csv.as_bytes()).unwrap();
        let schema = df.schema();
        assert_eq!(schema.field("a").unwrap().dtype, DType::Int);
        assert_eq!(schema.field("b").unwrap().dtype, DType::Float);
        assert_eq!(schema.field("c").unwrap().dtype, DType::Bool);
        assert_eq!(schema.field("d").unwrap().dtype, DType::Categorical);
        assert!(df.cell(2, "b").unwrap().is_null());
    }

    #[test]
    fn rejects_ragged_rows_and_bad_quotes() {
        assert!(read_csv("a,b\n1\n".as_bytes()).is_err());
        assert!(read_csv("a\n\"unclosed\n".as_bytes()).is_err());
        assert!(read_csv("".as_bytes()).is_err());
    }

    #[test]
    fn explicit_schema_overrides_inference() {
        // One distinct value would infer Categorical; force Text.
        let csv = "id,tag\n1,aaa\n2,aaa\n";
        let df = read_csv_with_schema(
            csv.as_bytes(),
            &[("id", DType::Float), ("tag", DType::Text)],
        )
        .unwrap();
        assert_eq!(df.schema().field("id").unwrap().dtype, DType::Float);
        assert_eq!(df.schema().field("tag").unwrap().dtype, DType::Text);
        assert_eq!(df.cell(0, "id").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn declared_text_keeps_its_exact_characters() {
        let csv = "zip,price,flag\n01004,1.50,TRUE\n02139,2.5,false\n";
        let df = read_csv_with_schema(
            csv.as_bytes(),
            &[
                ("zip", DType::Categorical),
                ("price", DType::Text),
                ("flag", DType::Text),
            ],
        )
        .unwrap();
        assert_eq!(df.cell(0, "zip").unwrap(), Value::Str("01004".into()));
        assert_eq!(df.cell(0, "price").unwrap(), Value::Str("1.50".into()));
        assert_eq!(df.cell(0, "flag").unwrap(), Value::Str("TRUE".into()));
        assert_eq!(df.cell(1, "flag").unwrap(), Value::Str("false".into()));
    }

    #[test]
    fn malformed_numeric_cells_are_errors_not_nulls() {
        for dtype in [DType::Int, DType::Float] {
            let err = read_csv_with_schema("n\n1\nabc\n".as_bytes(), &[("n", dtype)])
                .expect_err("abc is not a number");
            assert!(
                matches!(&err, FrameError::Csv(m) if m.contains("line 3") && m.contains("abc")),
                "{err}"
            );
        }
        let err = read_csv_with_schema("b\nyes\n".as_bytes(), &[("b", DType::Bool)]);
        assert!(err.is_err());
        // An empty field is still NULL.
        let df = read_csv_with_schema(
            "n,m\n,1\n".as_bytes(),
            &[("n", DType::Int), ("m", DType::Int)],
        )
        .unwrap();
        assert!(df.cell(0, "n").unwrap().is_null());
    }

    #[test]
    fn a_repeated_header_name_is_a_typed_error() {
        let csv = "a,b,a\n1,2,3\n";
        assert_eq!(
            read_csv(csv.as_bytes()).unwrap_err(),
            FrameError::DuplicateColumn("a".into())
        );
        let fields = [("a", DType::Int), ("b", DType::Int), ("a", DType::Int)];
        assert_eq!(
            read_csv_with_schema(csv.as_bytes(), &fields).unwrap_err(),
            FrameError::DuplicateColumn("a".into())
        );
    }

    #[test]
    fn a_one_column_null_row_survives_the_round_trip() {
        let df =
            DataFrame::from_columns(vec![Column::from_ints("x", vec![Some(1), None, Some(3)])])
                .unwrap();
        let mut buf = Vec::new();
        write_csv(&df, &mut buf).unwrap();
        let back = read_csv_with_schema(&buf[..], &[("x", DType::Int)]).unwrap();
        assert_eq!(back, df);
    }

    #[test]
    fn a_quoted_line_break_round_trips() {
        let df = DataFrame::from_columns(vec![
            Column::from_strings(
                "t",
                DType::Text,
                vec![Some("a\nb".into()), Some("c".into())],
            ),
            Column::from_ints("n", vec![Some(1), Some(2)]),
        ])
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&df, &mut buf).unwrap();
        assert_eq!(String::from_utf8_lossy(&buf), "t,n\n\"a\nb\",1\nc,2\n");
        let schema = [("t", DType::Text), ("n", DType::Int)];
        assert_eq!(read_csv_with_schema(&buf[..], &schema).unwrap(), df);
        let inferred = read_csv(&buf[..]).unwrap();
        assert_eq!(inferred.cell(0, "t").unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn crlf_blank_lines_are_skipped_like_lf_ones() {
        for lf in ["a,b\n1,2\n\n", "a\n1\n\n2\n"] {
            let crlf = lf.replace('\n', "\r\n");
            let want = read_csv(lf.as_bytes()).unwrap();
            assert_eq!(read_csv(crlf.as_bytes()).unwrap(), want, "{crlf:?}");
        }
        assert_eq!(
            read_csv("a\r\n1\r\n\r\n2\r\n".as_bytes()).unwrap().n_rows(),
            2
        );
    }

    #[test]
    fn errors_name_the_line_of_the_document() {
        // Blank lines count: the bad cell is on line 5.
        let err = read_csv_with_schema("a\n\n\n1\nx\n".as_bytes(), &[("a", DType::Int)]);
        assert!(
            matches!(&err, Err(FrameError::Csv(m)) if m.starts_with("line 5:")),
            "{err:?}"
        );
        // A quoted line break moves every later record down a line.
        let err = read_csv("a,b\n\"x\ny\",1\n2\n".as_bytes()).unwrap_err();
        assert_eq!(err.to_string().matches("line 4:").count(), 1, "{err}");
        let err = read_csv("a\n1\n\"open\n\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 3: unclosed quote"), "{err}");
    }

    #[test]
    fn path_roundtrip() {
        let dir = std::env::temp_dir().join("dp_frame_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let df =
            DataFrame::from_columns(vec![Column::from_ints("x", vec![Some(1), Some(2)])]).unwrap();
        write_csv_path(&df, &path).unwrap();
        let back = read_csv_path(&path).unwrap();
        assert_eq!(back.n_rows(), 2);
        std::fs::remove_file(&path).ok();
    }

    /// CSV-ish bytes: separators, quotes, line breaks, digits and
    /// boolean words mixed with any byte.
    fn csv_noise() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(
            prop_oneof![
                4 => prop::sample::select(b",,\"\"\n\r0123456789.-eE truefalsNa".to_vec()),
                1 => 0u8..=255u8,
            ],
            0..96,
        )
    }

    /// Raw material for one cell of any dtype, and a NULL draw.
    type CellSeed = ((i64, f64), (bool, String), u8);

    fn cell_seed() -> impl Strategy<Value = CellSeed> {
        (
            (i64::MIN..=i64::MAX, -1e12f64..1e12),
            (
                prop::sample::select(vec![true, false]),
                prop_oneof![
                    "0[0-9]{1,4}",
                    "[0-9]{1,2}\\.[0-9]{0,2}0",
                    "[a-z0-9 ,\".-]{1,8}",
                    (
                        "[a-z\"]{0,3}",
                        prop::sample::select(vec!["\n", "\r\n", "\r", "\n\n"])
                    )
                        .prop_map(|(text, brk)| format!("{text}{brk}{text}")),
                ],
            ),
            0u8..4,
        )
    }

    /// The cell a seed makes in a `dtype` column: NULL one time in
    /// four; strings are non-empty, often look numeric (`"01004"`,
    /// `"1.50"`), and carry separators, quotes and line breaks.
    fn cell(dtype: DType, seed: CellSeed) -> Value {
        let ((int, float), (boolean, text), null) = seed;
        if null == 0 {
            return Value::Null;
        }
        match dtype {
            DType::Int => Value::Int(int),
            DType::Float => Value::Float(float),
            DType::Bool => Value::Bool(boolean),
            DType::Categorical | DType::Text => Value::Str(text),
        }
    }

    /// A frame of one to four columns (named `c0`, `c1`, …) of any
    /// dtype and up to six rows.
    fn frame() -> impl Strategy<Value = DataFrame> {
        let dtype = prop::sample::select(vec![
            DType::Int,
            DType::Float,
            DType::Bool,
            DType::Categorical,
            DType::Text,
        ]);
        (prop::collection::vec(dtype, 1..5), 0usize..7).prop_flat_map(|(dtypes, rows)| {
            prop::collection::vec(cell_seed(), dtypes.len() * rows).prop_map(move |seeds| {
                let mut seeds = seeds.into_iter();
                let columns = dtypes
                    .iter()
                    .enumerate()
                    .map(|(j, &dtype)| {
                        let values = seeds.by_ref().take(rows).map(|s| cell(dtype, s)).collect();
                        Column::from_values(format!("c{j}"), dtype, values).unwrap()
                    })
                    .collect();
                DataFrame::from_columns(columns).unwrap()
            })
        })
    }

    proptest! {
        #[test]
        fn readers_never_panic_on_arbitrary_bytes(bytes in csv_noise()) {
            let _ = read_csv(&bytes[..]);
            let schema = [
                ("a", DType::Int),
                ("b", DType::Float),
                ("c", DType::Bool),
                ("d", DType::Categorical),
            ];
            let mut with_header = b"a,b,c,d\n".to_vec();
            with_header.extend_from_slice(&bytes);
            let _ = read_csv_with_schema(&with_header[..], &schema);
            let _ = read_csv_with_schema(&bytes[..], &schema);
        }

        #[test]
        fn written_frames_read_back_exactly_under_their_schema(df in frame()) {
            let mut buf = Vec::new();
            write_csv(&df, &mut buf).unwrap();
            let fields: Vec<(&str, DType)> =
                df.columns().iter().map(|c| (c.name(), c.dtype())).collect();
            let back = read_csv_with_schema(&buf[..], &fields);
            prop_assert_eq!(back, Ok(df.clone()), "{}", String::from_utf8_lossy(&buf));
        }
    }
}
