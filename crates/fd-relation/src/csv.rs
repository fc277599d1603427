//! Minimal RFC-4180 CSV reader/writer.
//!
//! FD discovery tooling conventionally consumes CSV (the Metanome benchmark
//! corpus the paper evaluates on is distributed as CSV), so the substrate
//! includes a dependency-free parser: quoted fields, embedded separators,
//! doubled-quote escapes, and both `\n` and `\r\n` row terminators. One
//! parser loop serves every reader and encodes each cell straight from its
//! row buffer through the [`ColumnDictionaries`], so a cell costs a scan and
//! a dictionary probe.

use crate::dictionary::ColumnDictionaries;
use crate::relation::{NullLabeling, Relation, RelationBuilder};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// CSV parsing failure with row context.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A row had a different number of fields than the header.
    RaggedRow {
        /// 1-based physical line the row's record started on.
        row: usize,
        /// Fields found in the row.
        found: usize,
        /// Fields expected from the header.
        expected: usize,
    },
    /// A quoted field was never closed.
    UnterminatedQuote {
        /// 1-based physical line the row's record started on.
        row: usize,
    },
    /// A field held bytes that are not valid UTF-8.
    InvalidUtf8 {
        /// 1-based physical line the row's record started on.
        row: usize,
    },
    /// The input contained no rows at all.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::RaggedRow { row, found, expected } => {
                write!(f, "row {row}: found {found} fields, expected {expected}")
            }
            CsvError::UnterminatedQuote { row } => {
                write!(f, "row {row}: unterminated quoted field")
            }
            CsvError::InvalidUtf8 { row } => {
                write!(f, "row {row}: field is not valid UTF-8")
            }
            CsvError::Empty => write!(f, "input contains no rows"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// How null (missing) values compare, following the two conventions used by
/// FD discovery tools (Metanome exposes the same switch).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NullPolicy {
    /// `null = null`: all nulls of a column share one label (SQL `GROUP BY`
    /// semantics). The default, matching the paper's benchmark setup.
    #[default]
    NullEqualsNull,
    /// `null ≠ null`: every null gets a fresh label, so no tuple pair ever
    /// agrees on a null — FDs become easier to satisfy on sparse columns.
    NullNotEquals,
}

/// What to do with a row whose field count differs from the header's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RaggedPolicy {
    /// Fail the whole parse (strict RFC-4180; the default).
    #[default]
    Error,
    /// Drop the row, recording a [`RowIssue`].
    Skip,
    /// Keep the row: pad short rows with nulls, truncate long ones; either
    /// way a [`RowIssue`] is recorded.
    Pad,
}

/// Options controlling CSV parsing.
#[derive(Clone, Debug)]
pub struct CsvOptions {
    /// Field separator, `,` by default.
    pub separator: u8,
    /// Whether the first row holds column names. When false, columns are
    /// named `col0`, `col1`, ….
    pub has_header: bool,
    /// The token denoting a missing value (besides the empty string), e.g.
    /// `"NULL"` or `"?"`. Empty fields are always treated as null.
    pub null_token: Option<String>,
    /// Equality semantics for nulls.
    pub null_policy: NullPolicy,
    /// Handling of rows with the wrong field count.
    pub on_ragged: RaggedPolicy,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: b',',
            has_header: true,
            null_token: None,
            null_policy: NullPolicy::NullEqualsNull,
            on_ragged: RaggedPolicy::Error,
        }
    }
}

/// What a permissive ragged-row policy did to one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowAction {
    /// The row was dropped ([`RaggedPolicy::Skip`]).
    Skipped,
    /// The row was extended to full width with nulls ([`RaggedPolicy::Pad`]).
    Padded,
    /// The row's surplus fields were cut off ([`RaggedPolicy::Pad`]).
    Truncated,
}

/// Per-row diagnostic emitted by a permissive ingestion run.
#[derive(Clone, Debug)]
pub struct RowIssue {
    /// 1-based physical line the row's record started on (the header's
    /// lines and blank lines included in the count), like the `row` of
    /// every [`CsvError`].
    pub row: usize,
    /// Fields found in the row.
    pub found: usize,
    /// Fields expected from the header.
    pub expected: usize,
    /// What was done with the row.
    pub action: RowAction,
}

/// Summary of an ingestion run: how many data rows were seen, how many made
/// it into the relation, and what happened to the ones that did not arrive
/// intact.
#[derive(Clone, Debug, Default)]
pub struct IngestReport {
    /// Data rows read from the input (excluding the header and blank
    /// lines).
    pub rows_read: usize,
    /// Data rows that ended up in the relation.
    pub rows_kept: usize,
    /// One entry per malformed row the policy handled.
    pub issues: Vec<RowIssue>,
}

/// Reads a dictionary-encoded [`Relation`] from a CSV file.
pub fn read_csv_file(path: impl AsRef<Path>, options: &CsvOptions) -> Result<Relation, CsvError> {
    read_csv_file_with_report(path, options).map(|(relation, _)| relation)
}

/// [`read_csv_file`] returning the per-row [`IngestReport`] as well.
pub fn read_csv_file_with_report(
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<(Relation, IngestReport), CsvError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "csv".to_owned());
    // The raw file goes straight in: the parser buffers its own reads.
    let file = File::open(path)?;
    read_csv_with_report(file, &name, options)
}

/// Reads a dictionary-encoded [`Relation`] from any reader.
pub fn read_csv<R: Read>(
    reader: R,
    name: &str,
    options: &CsvOptions,
) -> Result<Relation, CsvError> {
    read_csv_with_report(reader, name, options).map(|(relation, _)| relation)
}

/// [`read_csv`] returning the per-row [`IngestReport`] as well. With
/// [`RaggedPolicy::Error`] (the default) the report never carries issues —
/// the first malformed row fails the parse; the permissive policies record
/// what they skipped, padded, or truncated.
pub fn read_csv_with_report<R: Read>(
    reader: R,
    name: &str,
    options: &CsvOptions,
) -> Result<(Relation, IngestReport), CsvError> {
    let (builder, report) = ingest(reader, name, options)?;
    Ok((builder.finish(), report))
}

/// [`read_csv_with_report`] that also keeps the per-column dictionaries
/// alive, so delta rows arriving later (e.g. via `fdtool --delta-csv`) can
/// be encoded consistently with the base table — known values map to their
/// old labels, unseen values get fresh ones. The dictionaries remember
/// `options`' null token and policy for
/// [`ColumnDictionaries::encode_csv_row`].
pub fn read_csv_with_dictionaries<R: Read>(
    reader: R,
    name: &str,
    options: &CsvOptions,
) -> Result<(Relation, ColumnDictionaries, IngestReport), CsvError> {
    let (builder, report) = ingest(reader, name, options)?;
    let (relation, dicts) = builder.finish_with_dictionaries();
    Ok((relation, dicts, report))
}

/// [`read_csv_with_dictionaries`] over a file path.
pub fn read_csv_file_with_dictionaries(
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<(Relation, ColumnDictionaries, IngestReport), CsvError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "csv".to_owned());
    let file = File::open(path)?;
    read_csv_with_dictionaries(file, &name, options)
}

/// Reads raw string rows (header names + data rows) without encoding them
/// into a relation — the delta-file reader: rows are handed to
/// [`ColumnDictionaries::encode_csv_row`] against an existing base table,
/// which applies the base table's null convention. Honours the separator,
/// header, and ragged-row policy of `options`.
pub fn read_csv_rows<R: Read>(
    reader: R,
    options: &CsvOptions,
) -> Result<(Vec<String>, Vec<Vec<String>>), CsvError> {
    let mut rows = Rows::new(reader, options)?;
    let mut out: Vec<Vec<String>> = Vec::new();
    while rows.next_row()? {
        out.push(rows.parser.fields().map(|f| field_str(f).to_owned()).collect());
    }
    Ok((rows.names, out))
}

/// [`read_csv_rows`] over a file path.
pub fn read_csv_rows_file(
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<(Vec<String>, Vec<Vec<String>>), CsvError> {
    let file = File::open(path.as_ref())?;
    read_csv_rows(file, options)
}

/// Shared ingestion loop of the relation-producing readers: every kept row
/// is encoded straight from the parser's row buffer into a
/// [`RelationBuilder`] whose dictionaries remember the null convention.
fn ingest<R: Read>(
    reader: R,
    name: &str,
    options: &CsvOptions,
) -> Result<(RelationBuilder, IngestReport), CsvError> {
    let mut rows = Rows::new(reader, options)?;
    let labeling = match options.null_policy {
        NullPolicy::NullEqualsNull => NullLabeling::Shared,
        NullPolicy::NullNotEquals => NullLabeling::Distinct,
    };
    let dicts =
        ColumnDictionaries::new(rows.names.len(), options.null_token.as_deref(), labeling);
    let mut builder = RelationBuilder::with_dictionaries(name, rows.names.clone(), dicts);
    while rows.next_row()? {
        builder.push_fields(rows.parser.fields());
    }
    Ok((builder, rows.report))
}

/// A field's text. Fields are UTF-8-checked when their record completes.
fn field_str(field: &[u8]) -> &str {
    std::str::from_utf8(field).expect("the parser validated every field")
}

/// The data rows of a CSV source: the header (or numbered column names),
/// then each record the ragged-row policy keeps, at the header's width.
struct Rows<R> {
    parser: Parser<R>,
    names: Vec<String>,
    /// Headerless input: the first record is data and has not been handed
    /// out yet.
    pending: bool,
    on_ragged: RaggedPolicy,
    report: IngestReport,
}

impl<R: Read> Rows<R> {
    fn new(reader: R, options: &CsvOptions) -> Result<Self, CsvError> {
        let mut parser = Parser::new(reader, options.separator)?;
        if !parser.next_record()? {
            return Err(CsvError::Empty);
        }
        let names = if options.has_header {
            parser.fields().map(|f| field_str(f).to_owned()).collect()
        } else {
            (0..parser.ends.len()).map(|i| format!("col{i}")).collect()
        };
        Ok(Rows {
            parser,
            names,
            pending: !options.has_header,
            on_ragged: options.on_ragged,
            report: IngestReport::default(),
        })
    }

    /// Advances to the next kept row, padded or truncated to the header's
    /// width; false at the end of the input.
    fn next_row(&mut self) -> Result<bool, CsvError> {
        loop {
            if !std::mem::take(&mut self.pending) && !self.parser.next_record()? {
                return Ok(false);
            }
            let row = self.parser.start_line;
            self.report.rows_read += 1;
            // Chaos hook: an injected allocation failure surfaces as a clean
            // `CsvError::Io(OutOfMemory)` — ingestion fails loudly and early
            // rather than panicking or truncating the relation silently.
            if fd_faults::inject!("csv.ingest") == Some(fd_faults::Injected::AllocFail) {
                return Err(CsvError::Io(std::io::Error::new(
                    std::io::ErrorKind::OutOfMemory,
                    "fd-faults: injected allocation failure",
                )));
            }
            let (found, expected) = (self.parser.ends.len(), self.names.len());
            if found != expected {
                let action = match self.on_ragged {
                    RaggedPolicy::Error => {
                        return Err(CsvError::RaggedRow { row, found, expected });
                    }
                    RaggedPolicy::Skip => RowAction::Skipped,
                    RaggedPolicy::Pad if found < expected => RowAction::Padded,
                    RaggedPolicy::Pad => RowAction::Truncated,
                };
                self.report.issues.push(RowIssue { row, found, expected, action });
                if action == RowAction::Skipped {
                    continue;
                }
                self.parser.resize(expected);
            }
            self.report.rows_kept += 1;
            return Ok(true);
        }
    }
}

/// Bytes read from the source per refill.
const CHUNK: usize = 64 * 1024;

/// The UTF-8 byte order mark, stripped once from the start of the input.
const BOM: &[u8] = b"\xEF\xBB\xBF";

/// Where the parser stands within the current field.
#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Unquoted,
    Quoted,
    /// A `"` inside quotes: doubled it is a literal quote, otherwise it
    /// closed the quotes.
    QuoteInQuotes,
}

/// The CSV record parser. One reusable row buffer holds the current
/// record — every field's bytes back to back plus each field's end offset
/// — so a record costs a scan of its bytes and, once the buffers are warm,
/// no allocation.
///
/// The rules: fields split on the separator, records on `\n`, and `\r`s
/// just before a line break (or the end of input) are part of it. A field
/// that starts with `"` is quoted: separators and line breaks inside it are
/// content, `""` is a literal quote, and every quoted byte is kept verbatim,
/// `\r` included. A line that is empty outside quotes is skipped but still
/// numbered. One leading byte order mark is dropped.
struct Parser<R> {
    reader: R,
    buf: Box<[u8]>,
    /// `buf[pos..len]` is read but not yet parsed.
    pos: usize,
    len: usize,
    separator: u8,
    /// The current record's field bytes, back to back.
    bytes: Vec<u8>,
    /// End offset in `bytes` of each field of the current record.
    ends: Vec<usize>,
    /// Line breaks consumed so far.
    lines: usize,
    /// 1-based line the current record started on.
    start_line: usize,
}

impl<R: Read> Parser<R> {
    fn new(reader: R, separator: u8) -> Result<Self, CsvError> {
        let mut parser = Parser {
            reader,
            buf: vec![0; CHUNK].into_boxed_slice(),
            pos: 0,
            len: 0,
            separator,
            bytes: Vec::new(),
            ends: Vec::new(),
            lines: 0,
            start_line: 0,
        };
        while parser.len < BOM.len() {
            let n = read_retrying(&mut parser.reader, &mut parser.buf[parser.len..])?;
            if n == 0 {
                break;
            }
            parser.len += n;
        }
        if parser.buf[..parser.len].starts_with(BOM) {
            parser.pos = BOM.len();
        }
        Ok(parser)
    }

    /// The current record's fields.
    fn fields(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let field = &self.bytes[start..end];
            start = end;
            field
        })
    }

    /// Pads the current record with empty fields, or cuts it, to `width`.
    fn resize(&mut self, width: usize) {
        self.ends.resize(width, self.bytes.len());
        self.bytes.truncate(self.ends.last().copied().unwrap_or(0));
    }

    /// Parses the next record into the row buffer; false at the end of the
    /// input.
    fn next_record(&mut self) -> Result<bool, CsvError> {
        self.bytes.clear();
        self.ends.clear();
        self.start_line = self.lines + 1;
        let mut state = State::Unquoted;
        // Bytes below `keep` are never trimmed as a line break's `\r`: the
        // current field's start, or where its quotes last closed.
        let mut keep = 0;
        let mut quoted = false;
        loop {
            if self.pos == self.len {
                self.pos = 0;
                self.len = read_retrying(&mut self.reader, &mut self.buf)?;
                if self.len == 0 {
                    break;
                }
            }
            let chunk = &self.buf[self.pos..self.len];
            match state {
                State::Quoted => {
                    let run = chunk.iter().position(|&b| b == b'"').unwrap_or(chunk.len());
                    self.lines += chunk[..run].iter().filter(|&&b| b == b'\n').count();
                    self.bytes.extend_from_slice(&chunk[..run]);
                    self.pos += run;
                    if run < chunk.len() {
                        self.pos += 1;
                        state = State::QuoteInQuotes;
                    }
                }
                State::QuoteInQuotes => {
                    if chunk[0] == b'"' {
                        self.bytes.push(b'"');
                        self.pos += 1;
                        state = State::Quoted;
                    } else {
                        keep = self.bytes.len();
                        state = State::Unquoted;
                    }
                }
                State::Unquoted => {
                    let sep = self.separator;
                    let Some(run) =
                        chunk.iter().position(|&b| b == b'\n' || b == b'"' || b == sep)
                    else {
                        self.bytes.extend_from_slice(chunk);
                        self.pos = self.len;
                        continue;
                    };
                    self.bytes.extend_from_slice(&chunk[..run]);
                    let b = chunk[run];
                    self.pos += run + 1;
                    let field_start = self.ends.last().copied().unwrap_or(0);
                    if b == b'\n' {
                        self.lines += 1;
                        self.trim_cr(keep);
                        if self.ends.is_empty() && self.bytes.is_empty() && !quoted {
                            // A blank line: numbered, but no record.
                            self.start_line = self.lines + 1;
                            continue;
                        }
                        return self.complete().map(|()| true);
                    } else if b == b'"' && self.bytes.len() == field_start {
                        state = State::Quoted;
                        quoted = true;
                    } else if b == sep {
                        self.ends.push(self.bytes.len());
                        keep = self.bytes.len();
                    } else {
                        self.bytes.push(b);
                    }
                }
            }
        }
        match state {
            State::Quoted => {
                self.check_utf8()?;
                return Err(CsvError::UnterminatedQuote { row: self.start_line });
            }
            State::QuoteInQuotes => keep = self.bytes.len(),
            State::Unquoted => {}
        }
        self.trim_cr(keep);
        if self.ends.is_empty() && self.bytes.is_empty() && !quoted {
            return Ok(false);
        }
        self.complete().map(|()| true)
    }

    /// Drops the `\r`s that end the current field beyond offset `keep`.
    fn trim_cr(&mut self, keep: usize) {
        while self.bytes.len() > keep && self.bytes.last() == Some(&b'\r') {
            self.bytes.pop();
        }
    }

    /// Closes the current record's last field and checks its encoding.
    fn complete(&mut self) -> Result<(), CsvError> {
        self.ends.push(self.bytes.len());
        self.check_utf8()
    }

    /// Fails with [`CsvError::InvalidUtf8`], numbered by the line the
    /// record started on, unless every closed field is UTF-8.
    fn check_utf8(&self) -> Result<(), CsvError> {
        if self.bytes.is_ascii() || self.fields().all(|f| std::str::from_utf8(f).is_ok()) {
            Ok(())
        } else {
            Err(CsvError::InvalidUtf8 { row: self.start_line })
        }
    }
}

/// [`Read::read`] that retries on [`io::ErrorKind::Interrupted`].
fn read_retrying(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match reader.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            result => return result,
        }
    }
}

/// Writes raw string rows as CSV, quoting fields when needed. Used by the
/// examples and by tests to round-trip generated datasets.
pub fn write_csv<W: Write>(
    writer: W,
    header: &[String],
    rows: impl Iterator<Item = Vec<String>>,
    separator: u8,
) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let mut line = Vec::new();
    write_row(&mut w, &mut line, header, separator)?;
    for row in rows {
        write_row(&mut w, &mut line, &row, separator)?;
    }
    w.flush()
}

/// Writes one record, assembled in the reusable `line` buffer so the writer
/// sees one call per row.
fn write_row<W: Write>(
    w: &mut W,
    line: &mut Vec<u8>,
    fields: &[String],
    separator: u8,
) -> io::Result<()> {
    line.clear();
    match fields {
        // Unquoted, a lone empty field would be a blank line, which readers
        // skip.
        [only] if only.is_empty() => line.extend_from_slice(b"\"\""),
        _ => {
            for (i, f) in fields.iter().enumerate() {
                if i > 0 {
                    line.push(separator);
                }
                if f.bytes().any(|b| b == separator || b == b'"' || b == b'\n' || b == b'\r') {
                    line.push(b'"');
                    for b in f.bytes() {
                        if b == b'"' {
                            line.push(b'"');
                        }
                        line.push(b);
                    }
                    line.push(b'"');
                } else {
                    line.extend_from_slice(f.as_bytes());
                }
            }
        }
    }
    line.push(b'\n');
    w.write_all(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(data: &str) -> Relation {
        read_csv(data.as_bytes(), "test", &CsvOptions::default()).unwrap()
    }

    #[test]
    fn parses_plain_csv_with_header() {
        let r = parse("a,b,c\n1,2,3\n1,5,3\n");
        assert_eq!(r.n_attrs(), 3);
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.column_names(), &["a".to_string(), "b".into(), "c".into()]);
        assert_eq!(r.column(0), &[0, 0]);
        assert_eq!(r.column(1), &[0, 1]);
    }

    #[test]
    fn headerless_mode_names_columns() {
        let opts = CsvOptions { has_header: false, ..Default::default() };
        let r = read_csv("x,y\nx,z\n".as_bytes(), "t", &opts).unwrap();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.column_names(), &["col0".to_string(), "col1".into()]);
    }

    #[test]
    fn quoted_fields_with_separators_and_escapes() {
        let r = parse("a,b\n\"x,1\",\"he said \"\"hi\"\"\"\nplain,other\n");
        assert_eq!(r.n_rows(), 2);
        // Distinct values per column confirm the quoted content was one field.
        assert_eq!(r.n_distinct(0), 2);
        assert_eq!(r.n_distinct(1), 2);
    }

    #[test]
    fn quoted_field_spanning_lines() {
        let r = parse("a,b\n\"line1\nline2\",v\nq,v\n");
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.n_distinct(1), 1);
    }

    #[test]
    fn crlf_terminators_are_stripped() {
        let r = parse("a,b\r\n1,2\r\n1,2\r\n");
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.n_distinct(0), 1);
        assert_eq!(r.n_distinct(1), 1);
    }

    #[test]
    fn blank_lines_are_skipped_but_numbered() {
        let r = parse("a,b\n1,2\n\n");
        assert_eq!(r.n_rows(), 1);
        let r = parse("a\n1\n2\n\r\n\n");
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.n_distinct(0), 2);
        let err = read_csv("a,b\n1,2\n\n3\n".as_bytes(), "t", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::RaggedRow { row: 4, found: 1, .. }), "{err:?}");
        // A quoted empty field is a row, not a blank line.
        let r = parse("a\n\"\"\nx\n\"\"\n");
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.label(0, 0), r.label(2, 0));
    }

    #[test]
    fn one_column_nulls_roundtrip() {
        let rows = vec![vec![String::new()], vec!["x".to_string()], vec![String::new()]];
        let mut buf = Vec::new();
        write_csv(&mut buf, &["a".to_string()], rows.into_iter(), b',').unwrap();
        assert_eq!(buf, b"a\n\"\"\nx\n\"\"\n");
        let r = read_csv(&buf[..], "rt", &CsvOptions::default()).unwrap();
        assert_eq!(r.column(0), &[0, 1, 0]);
    }

    #[test]
    fn leading_byte_order_mark_is_stripped_once() {
        let r = parse("\u{feff}a,b\n1,2\n");
        assert_eq!(r.column_names(), &["a".to_string(), "b".into()]);
        // The mark does not hide a quote that opens the first field.
        let r = parse("\u{feff}\"a,1\",b\n1,2\n");
        assert_eq!(r.column_names(), &["a,1".to_string(), "b".into()]);
        // A mark split across reads is still found.
        let split = (&b"\xEF"[..]).chain(&b"\xBB\xBFa\n1\n"[..]);
        let r = read_csv(split, "t", &CsvOptions::default()).unwrap();
        assert_eq!(r.column_names(), &["a".to_string()]);
        // Only one mark, and only at the very start, is dropped.
        let r = parse("\u{feff}\u{feff}a\n\u{feff}\n");
        assert_eq!(r.column_names(), &["\u{feff}a".to_string()]);
        assert_eq!(r.n_rows(), 1);
    }

    #[test]
    fn quoted_line_breaks_keep_their_carriage_returns() {
        let r = parse("a,b\n\"x\r\ny\",1\r\n\"x\ny\",2\r\n\"z\r\",3\r\n");
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.n_distinct(0), 3, "x\\r\\ny and x\\ny are distinct values");
        let (_, rows) = read_csv_rows("a\n\"x\r\ny\"\n\"z\r\"".as_bytes(), &CsvOptions::default())
            .unwrap();
        assert_eq!(rows, vec![vec!["x\r\ny".to_string()], vec!["z\r".to_string()]]);
    }

    #[test]
    fn ragged_rows_are_an_error() {
        let err = read_csv("a,b\n1\n".as_bytes(), "t", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::RaggedRow { row: 2, found: 1, expected: 2 }));
    }

    #[test]
    fn ragged_rows_are_numbered_by_the_line_their_record_starts_on() {
        // The quoted line break puts the ragged record `3` on line 4.
        let err = read_csv("a,b\n\"x\ny\",1\n3\n".as_bytes(), "t", &CsvOptions::default())
            .unwrap_err();
        assert!(matches!(err, CsvError::RaggedRow { row: 4, found: 1, expected: 2 }), "{err:?}");
        // Headerless input has no header line to count: `3` is on line 2.
        let opts = CsvOptions { has_header: false, ..Default::default() };
        let err = read_csv("1,2\n3\n".as_bytes(), "t", &opts).unwrap_err();
        assert!(matches!(err, CsvError::RaggedRow { row: 2, found: 1, expected: 2 }), "{err:?}");
        // Permissive runs report the same lines.
        let opts = CsvOptions { on_ragged: RaggedPolicy::Pad, ..Default::default() };
        let (_, report) =
            read_csv_with_report("a,b\n\"x\ny\",1\n\n3\n".as_bytes(), "t", &opts).unwrap();
        let rows: Vec<usize> = report.issues.iter().map(|i| i.row).collect();
        assert_eq!(rows, vec![5]);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = read_csv("a\n\"open\n".as_bytes(), "t", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::UnterminatedQuote { .. }));
    }

    #[test]
    fn empty_input_is_an_error() {
        let err = read_csv("".as_bytes(), "t", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::Empty));
    }

    #[test]
    fn shared_nulls_agree_with_each_other() {
        // Default policy: the two empty cells in column b share a label.
        let r = parse("a,b\n1,\n2,\n3,x\n");
        assert_eq!(r.n_distinct(1), 2);
        assert_eq!(r.label(0, 1), r.label(1, 1));
        assert_ne!(r.label(0, 1), r.label(2, 1));
    }

    #[test]
    fn distinct_nulls_never_agree() {
        let opts = CsvOptions { null_policy: NullPolicy::NullNotEquals, ..Default::default() };
        let r = read_csv("a,b\n1,\n2,\n3,x\n".as_bytes(), "t", &opts).unwrap();
        assert_eq!(r.n_distinct(1), 3);
        assert_ne!(r.label(0, 1), r.label(1, 1));
    }

    #[test]
    fn custom_null_token_is_recognized() {
        let opts = CsvOptions { null_token: Some("?".to_string()), ..Default::default() };
        let r = read_csv("a,b\n1,?\n2,?\n3,q\n".as_bytes(), "t", &opts).unwrap();
        // '?' cells share the null label; 'q' is a real value.
        assert_eq!(r.n_distinct(1), 2);
        assert_eq!(r.label(0, 1), r.label(1, 1));
        // Without the token, '?' is an ordinary value equal to itself.
        let plain = parse("a,b\n1,?\n2,?\n3,q\n");
        assert_eq!(plain.n_distinct(1), 2);
    }

    #[test]
    fn null_policy_changes_discovered_structure() {
        // With null=null, column a determines b only if the two null rows
        // agree on a too; with null≠null the nulls cannot violate anything.
        let data = "a,b\nx,\ny,\nx,1\n";
        let shared = parse(data);
        // rows 0 and 2 share a=x but b differs (null vs 1): a ↛ b.
        assert!(!shared.fd_holds(&fd_core::AttrSet::single(0), 1));
        let opts = CsvOptions { null_policy: NullPolicy::NullNotEquals, ..Default::default() };
        let distinct = read_csv(data.as_bytes(), "t", &opts).unwrap();
        // Same violation persists (null ≠ 1 either way)…
        assert!(!distinct.fd_holds(&fd_core::AttrSet::single(0), 1));
        // …but b → a flips: with shared nulls rows 0,1 agree on b and
        // disagree on a (violation); with distinct nulls they don't agree.
        assert!(!shared.fd_holds(&fd_core::AttrSet::single(1), 0));
        assert!(distinct.fd_holds(&fd_core::AttrSet::single(1), 0));
    }

    #[test]
    fn semicolon_separator() {
        let opts = CsvOptions { separator: b';', ..Default::default() };
        let r = read_csv("a;b\n1;2\n".as_bytes(), "t", &opts).unwrap();
        assert_eq!(r.n_attrs(), 2);
        assert_eq!(r.n_rows(), 1);
    }

    #[test]
    fn non_ascii_fields_survive_intact() {
        // Multi-byte UTF-8 (2-, 3-, and 4-byte sequences) in plain and
        // quoted fields must round-trip byte-for-byte. Header names are the
        // directly observable parse output; byte-at-a-time `as char`
        // decoding would mangle every one of them into mojibake.
        let data = "café,\"日本語, quoted\",𝄞clef\n1,2,3\n1,2,3\n";
        let r = read_csv(data.as_bytes(), "t", &CsvOptions::default()).unwrap();
        assert_eq!(
            r.column_names(),
            &["café".to_string(), "日本語, quoted".into(), "𝄞clef".into()]
        );
        assert_eq!(r.n_rows(), 2);
    }

    #[test]
    fn non_ascii_null_token_matches_fields() {
        // Data-cell bytes must decode exactly too: a non-ASCII null token
        // only matches if the field survived without re-encoding.
        let opts = CsvOptions { null_token: Some("é?".to_string()), ..Default::default() };
        let r = read_csv("a,b\n1,é?\n2,é?\n3,x\n".as_bytes(), "t", &opts).unwrap();
        assert_eq!(r.n_distinct(1), 2, "the two null cells must share one label");
        assert_eq!(r.label(0, 1), r.label(1, 1));
        assert_ne!(r.label(0, 1), r.label(2, 1));
    }

    #[test]
    fn written_non_ascii_roundtrips_through_the_parser() {
        let header = vec!["naïve".to_string(), "日本".to_string()];
        let rows = vec![vec!["é,è".to_string(), "ü\nö".to_string()]];
        let mut buf = Vec::new();
        write_csv(&mut buf, &header, rows.into_iter(), b',').unwrap();
        let r = read_csv(&buf[..], "rt", &CsvOptions::default()).unwrap();
        assert_eq!(r.column_names(), &header[..]);
        assert_eq!(r.n_rows(), 1);
    }

    #[test]
    fn invalid_utf8_is_an_error_with_row_number() {
        let mut data = b"a,b\nok,fine\n".to_vec();
        data.extend_from_slice(&[0xFF, 0xFE, b',', b'x', b'\n']);
        let err = read_csv(&data[..], "t", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::InvalidUtf8 { row: 3 }), "{err:?}");
    }

    #[test]
    fn ragged_skip_drops_rows_and_reports_them() {
        let opts = CsvOptions { on_ragged: RaggedPolicy::Skip, ..Default::default() };
        let (r, report) =
            read_csv_with_report("a,b\n1,2\n3\n4,5,6\n7,8\n".as_bytes(), "t", &opts).unwrap();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(report.rows_read, 4);
        assert_eq!(report.rows_kept, 2);
        assert_eq!(report.issues.len(), 2);
        assert_eq!(report.issues[0].row, 3);
        assert_eq!(report.issues[0].found, 1);
        assert_eq!(report.issues[0].action, RowAction::Skipped);
        assert_eq!(report.issues[1].row, 4);
        assert_eq!(report.issues[1].found, 3);
    }

    #[test]
    fn ragged_pad_keeps_rows_with_nulls_and_truncation() {
        let opts = CsvOptions { on_ragged: RaggedPolicy::Pad, ..Default::default() };
        let (r, report) =
            read_csv_with_report("a,b\n1,2\n3\n4,5,6\n".as_bytes(), "t", &opts).unwrap();
        assert_eq!(r.n_rows(), 3);
        assert_eq!(report.rows_kept, 3);
        assert_eq!(report.issues.len(), 2);
        assert_eq!(report.issues[0].action, RowAction::Padded);
        assert_eq!(report.issues[1].action, RowAction::Truncated);
        // The padded cell behaves as a null: shares a label with nothing
        // non-null in column b.
        assert_eq!(r.n_attrs(), 2);
    }

    #[test]
    fn strict_parse_has_clean_report() {
        let (_, report) =
            read_csv_with_report("a,b\n1,2\n".as_bytes(), "t", &CsvOptions::default()).unwrap();
        assert_eq!(report.rows_read, 1);
        assert_eq!(report.rows_kept, 1);
        assert!(report.issues.is_empty());
    }

    #[test]
    fn dictionaries_reader_matches_plain_reader_and_extends_labels() {
        let data = "a,b\nx,1\ny,2\nx,3\n";
        let plain = parse(data);
        let (r, mut dicts, report) =
            read_csv_with_dictionaries(data.as_bytes(), "test", &CsvOptions::default()).unwrap();
        assert_eq!(r, plain);
        assert_eq!(report.rows_kept, 3);
        // A delta row with one known and one unseen value.
        let encoded = dicts.encode_csv_row(&["y", "9"]);
        assert_eq!(encoded[0], r.label(1, 0), "known value keeps its base label");
        assert_eq!(encoded[1] as usize, r.n_distinct(1), "unseen value gets the next label");
    }

    #[test]
    fn raw_row_reader_returns_strings_and_honours_policies() {
        let (names, rows) =
            read_csv_rows("a,b\n1,2\n3,4\n".as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(names, vec!["a".to_string(), "b".into()]);
        assert_eq!(rows, vec![vec!["1".to_string(), "2".into()], vec!["3".into(), "4".into()]]);
        // Headerless input keeps the first row as data.
        let opts = CsvOptions { has_header: false, ..Default::default() };
        let (names, rows) = read_csv_rows("1,2\n".as_bytes(), &opts).unwrap();
        assert_eq!(names, vec!["col0".to_string(), "col1".into()]);
        assert_eq!(rows.len(), 1);
        // Ragged rows follow the policy.
        let skip = CsvOptions { on_ragged: RaggedPolicy::Skip, ..Default::default() };
        let (_, rows) = read_csv_rows("a,b\n1\n2,3\n".as_bytes(), &skip).unwrap();
        assert_eq!(rows, vec![vec!["2".to_string(), "3".into()]]);
        assert!(read_csv_rows("a,b\n1\n".as_bytes(), &CsvOptions::default()).is_err());
    }

    #[test]
    fn write_then_read_roundtrip() {
        let header = vec!["name".to_string(), "note".to_string()];
        let rows = vec![
            vec!["plain".to_string(), "with,comma".to_string()],
            vec!["quote\"y".to_string(), "multi\nline".to_string()],
        ];
        let mut buf = Vec::new();
        write_csv(&mut buf, &header, rows.clone().into_iter(), b',').unwrap();
        let r = read_csv(&buf[..], "rt", &CsvOptions::default()).unwrap();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.n_attrs(), 2);
        assert_eq!(r.n_distinct(0), 2);
        assert_eq!(r.n_distinct(1), 2);
    }
}
