//! The import direction: one pull parser over the document text, then a
//! per-trace link.
//!
//! [`Parser`] walks the input `&str` once and records, in the flat vectors of
//! an [`Arena`], one [`SpanRec`] per span, one [`ProcessRec`] per `processes`
//! entry and one [`TraceRec`] per trace. Every string a record holds is a
//! [`Text`]: a byte range of the input, or — only when the literal contained
//! an escape — of the arena's `decoded` side buffer. Ranges instead of `&str`
//! keep the arena free of the input's lifetime, so one thread-local
//! [`Scratch`] serves every document and a warm import allocates nothing per
//! key, id, tag or name. Fields the model never reads (tags, logs,
//! `duration`, the per-span `traceID`, anything unknown) are validated and
//! dropped on the spot.
//!
//! Nothing touches the [`Interner`] until the whole document has parsed:
//! a document-level error leaves it as it was. Only then does [`link`] turn
//! each trace's records into a span tree — span-id groups by sorting, one
//! CSR child list, names interned straight from the slices in DFS pre-order.
//!
//! The accept set is that of the serde derive this replaced (kept under
//! `cfg(test)` as the oracle in `jaeger/oracle.rs`): keys in any order, a
//! repeated key's last value wins, a missing or wrongly-typed required field
//! fails the document. That is why a shape mismatch does not abort the parse
//! but travels upward as `Ok(false)`: a later duplicate of an enclosing key
//! may still replace the offending value.

use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::Range;

use deeprest_fault as fault;
use serde_json::{Error, Number};

use super::{ImportError, MAX_SPAN_DEPTH};
use crate::window::TimestampedTrace;
use crate::{Interner, SpanNode, Trace};

/// Arrays and objects may nest this deep, counted from the document root:
/// the bound upstream `serde_json` applies, and the one the vendored
/// stand-in (which the oracle parses with) applies too.
const MAX_NESTING: usize = 128;

/// A string value of the document: a byte range of the input text, or of
/// [`Arena::decoded`] when the literal contained an escape.
#[derive(Clone, Copy, Debug)]
struct Text {
    start: usize,
    end: usize,
    decoded: bool,
}

impl Text {
    /// The text itself, given the document and its arena's `decoded` buffer.
    fn of<'a>(self, json: &'a str, decoded: &'a str) -> &'a str {
        let source = if self.decoded { decoded } else { json };
        &source[self.start..self.end]
    }
}

/// One span, reduced to what the link reads.
#[derive(Debug)]
struct SpanRec {
    id: Text,
    operation: Text,
    process: Text,
    /// The `spanID` of the first `CHILD_OF` reference.
    parent: Option<Text>,
    start_time: u64,
}

/// One entry of a trace's `processes` table.
#[derive(Debug)]
struct ProcessRec {
    id: Text,
    service: Text,
}

/// One trace: its id and its slices of [`Arena::spans`] / [`Arena::processes`].
#[derive(Debug)]
struct TraceRec {
    id: Text,
    spans: Range<usize>,
    processes: Range<usize>,
}

/// What one document parses into.
#[derive(Debug, Default)]
struct Arena {
    /// Decoded text of the string literals that contained an escape.
    decoded: String,
    traces: Vec<TraceRec>,
    spans: Vec<SpanRec>,
    processes: Vec<ProcessRec>,
}

/// Per-trace link tables, all indexed by a span's position in its trace.
#[derive(Debug, Default)]
struct LinkTables {
    /// Span positions sorted by `(id, position)`.
    by_id: Vec<usize>,
    /// The first span carrying the same id: spans sharing an id share one
    /// child list, as they shared one key of the old `children` map.
    group: Vec<usize>,
    /// The group of each span's parent.
    parent: Vec<usize>,
    /// CSR child lists per group: `children[child_start[g]..child_start[g + 1]]`,
    /// in document order.
    child_start: Vec<usize>,
    children: Vec<usize>,
    /// Next free slot of each group's list while `children` is filled.
    cursor: Vec<usize>,
    /// Process positions sorted by `(id, position)`.
    process_by_id: Vec<usize>,
}

/// Everything an import reuses from one document to the next.
#[derive(Debug, Default)]
struct Scratch {
    arena: Arena,
    tables: LinkTables,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The scratch is kept warm for the next document only after one of at most
/// this many bytes, so one oversized upload does not pin an arena of a
/// comparable size to the thread for good.
const SCRATCH_KEEP_BYTES: usize = 64 << 20;

/// Parses `json` and links every trace, in document order, into `interner`.
/// `dropped` receives the error of each trace that did not link.
///
/// # Errors
///
/// [`ImportError::Json`] when the document does not parse or does not have
/// the Jaeger shape; the interner is untouched then.
pub(super) fn import_doc(
    json: &str,
    interner: &mut Interner,
    dropped: impl FnMut(ImportError),
) -> Result<Vec<TimestampedTrace>, ImportError> {
    // Fault probe: `trace.parse` forces the document-level parse error path.
    if fault::fail_point("trace.parse") {
        return Err(ImportError::Json(Error::custom(
            "deeprest-fault: injected parse error",
        )));
    }
    // Taken, not borrowed: a sink or probe that imports re-entrantly, or a
    // panic below, costs this thread its warm scratch and nothing else.
    let mut scratch = SCRATCH.take();
    let result = import_on(json, interner, &mut scratch, dropped);
    if json.len() <= SCRATCH_KEEP_BYTES {
        SCRATCH.set(scratch);
    }
    result
}

fn import_on(
    json: &str,
    interner: &mut Interner,
    scratch: &mut Scratch,
    mut dropped: impl FnMut(ImportError),
) -> Result<Vec<TimestampedTrace>, ImportError> {
    Parser::parse(json, &mut scratch.arena).map_err(ImportError::Json)?;
    let doc = Doc {
        json,
        arena: &scratch.arena,
    };
    let mut traces = Vec::with_capacity(doc.arena.traces.len());
    for trace in &doc.arena.traces {
        match link(&doc, trace, &mut scratch.tables, interner) {
            Ok(t) => traces.push(t),
            Err(err) => dropped(err),
        }
    }
    Ok(traces)
}

// ---------------------------------------------------------------------------
// Parse
// ---------------------------------------------------------------------------

struct Parser<'a> {
    json: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    arena: &'a mut Arena,
}

impl<'a> Parser<'a> {
    fn parse(json: &'a str, arena: &'a mut Arena) -> Result<(), Error> {
        arena.decoded.clear();
        let mut p = Parser {
            json,
            bytes: json.as_bytes(),
            pos: 0,
            depth: 0,
            arena,
        };
        let shaped = p.document()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        if !shaped {
            return Err(Error::custom(
                "not a Jaeger document: a required field is missing or has the wrong type",
            ));
        }
        Ok(())
    }

    // -- the Jaeger shape ---------------------------------------------------
    //
    // Each of these consumes exactly one JSON value and answers whether it
    // had the expected shape; `Err` is reserved for text that is not JSON.

    fn document(&mut self) -> Result<bool, Error> {
        let mut data = false;
        self.fields(|p, key| {
            match key {
                "data" => {
                    p.arena.traces.clear();
                    p.arena.spans.clear();
                    p.arena.processes.clear();
                    data = p.array_of(Self::trace)?;
                }
                _ => p.skip_value()?,
            }
            Ok(())
        })?;
        Ok(data)
    }

    fn trace(&mut self) -> Result<bool, Error> {
        let span_mark = self.arena.spans.len();
        let process_mark = self.arena.processes.len();
        let (mut id, mut spans, mut processes) = (None, false, false);
        self.fields(|p, key| {
            match key {
                "traceID" => id = p.string_field()?,
                "spans" => {
                    p.arena.spans.truncate(span_mark);
                    spans = p.array_of(Self::span)?;
                }
                "processes" => {
                    p.arena.processes.truncate(process_mark);
                    processes = p.processes()?;
                }
                _ => p.skip_value()?,
            }
            Ok(())
        })?;
        let (Some(id), true, true) = (id, spans, processes) else {
            return Ok(false);
        };
        self.arena.traces.push(TraceRec {
            id,
            spans: span_mark..self.arena.spans.len(),
            processes: process_mark..self.arena.processes.len(),
        });
        Ok(true)
    }

    fn span(&mut self) -> Result<bool, Error> {
        let (mut trace_id, mut id, mut operation, mut process) = (None, None, None, None);
        // Optional fields: absent is fine, present must have the type.
        let (mut parent, mut references) = (None, true);
        let (mut start_time, mut duration) = (Some(0), Some(0));
        self.fields(|p, key| {
            match key {
                "traceID" => trace_id = p.string_field()?,
                "spanID" => id = p.string_field()?,
                "operationName" => operation = p.string_field()?,
                "processID" => process = p.string_field()?,
                "references" => {
                    // The first `CHILD_OF` reference names the parent.
                    parent = None;
                    references = p.array_of(|p| {
                        let reference = p.reference()?;
                        if let (None, Some((ref_type, id))) = (parent, reference) {
                            parent = (p.text(ref_type) == "CHILD_OF").then_some(id);
                        }
                        Ok(reference.is_some())
                    })?;
                }
                "startTime" => start_time = p.u64_field()?,
                "duration" => duration = p.u64_field()?,
                _ => p.skip_value()?,
            }
            Ok(())
        })?;
        let (Some(id), Some(operation), Some(process), Some(start_time)) =
            (id, operation, process, start_time)
        else {
            return Ok(false);
        };
        if trace_id.is_none() || duration.is_none() || !references {
            return Ok(false);
        }
        self.arena.spans.push(SpanRec {
            id,
            operation,
            process,
            parent,
            start_time,
        });
        Ok(true)
    }

    /// One entry of `references`: its `refType` and `spanID`.
    fn reference(&mut self) -> Result<Option<(Text, Text)>, Error> {
        let (mut ref_type, mut id) = (None, None);
        self.fields(|p, key| {
            match key {
                "refType" => ref_type = p.string_field()?,
                "spanID" => id = p.string_field()?,
                _ => p.skip_value()?,
            }
            Ok(())
        })?;
        Ok(ref_type.zip(id))
    }

    fn processes(&mut self) -> Result<bool, Error> {
        if self.peek()? != b'{' {
            self.skip_value()?;
            return Ok(false);
        }
        // Ids whose value was not a process: fatal unless the id is repeated
        // with a good one (a map keeps the last value of a key).
        let mut misshapen = Vec::new();
        self.object(|p, id| {
            let mut service = None;
            p.fields(|p, key| {
                match key {
                    "serviceName" => service = p.string_field()?,
                    _ => p.skip_value()?,
                }
                Ok(())
            })?;
            match service {
                Some(service) => p.arena.processes.push(ProcessRec { id, service }),
                None => misshapen.push((id, p.arena.processes.len())),
            }
            Ok(())
        })?;
        Ok(misshapen.iter().all(|&(id, next)| {
            let later = &self.arena.processes[next..];
            later.iter().any(|p| self.text(p.id) == self.text(id))
        }))
    }

    /// The fields of a record, each handed to `field` by name to consume its
    /// value. A value that is no object has none: the caller's required
    /// fields stay unset, which is how it learns.
    fn fields(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if self.peek()? != b'{' {
            return self.skip_value();
        }
        self.object(|p, key| {
            let json = p.json;
            let key = if key.decoded {
                Cow::Owned(p.text(key).to_owned())
            } else {
                Cow::Borrowed(&json[key.start..key.end])
            };
            field(p, &key)
        })
    }

    /// An array whose every element `item` finds well-shaped.
    fn array_of(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<bool, Error>,
    ) -> Result<bool, Error> {
        if self.peek()? != b'[' {
            self.skip_value()?;
            return Ok(false);
        }
        let mut shaped = true;
        self.array(|p| {
            shaped &= item(p)?;
            Ok(())
        })?;
        Ok(shaped)
    }

    fn string_field(&mut self) -> Result<Option<Text>, Error> {
        if self.peek()? == b'"' {
            self.string().map(Some)
        } else {
            self.skip_value()?;
            Ok(None)
        }
    }

    fn u64_field(&mut self) -> Result<Option<u64>, Error> {
        if matches!(self.peek()?, b'-' | b'0'..=b'9') {
            Ok(self.number()?.as_u64())
        } else {
            self.skip_value()?;
            Ok(None)
        }
    }

    // -- JSON ---------------------------------------------------------------
    //
    // The grammar is the vendored `serde_json`'s, leniencies included (raw
    // control characters in strings, `01`, `1.`, a sign inside `\u`): the
    // oracle parses with it and the two must accept the same texts.

    fn error(&self, what: &str) -> Error {
        Error::custom(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next byte after whitespace, not consumed.
    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn descend(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth >= MAX_NESTING {
            return Err(self.error("nesting deeper than the recursion limit"));
        }
        Ok(())
    }

    /// Validates any one value and keeps nothing of it.
    fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek()? {
            b'n' => self.literal("null"),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'"' => {
                let mark = self.arena.decoded.len();
                self.string()?;
                self.arena.decoded.truncate(mark);
                Ok(())
            }
            b'[' => self.array(Self::skip_value),
            b'{' => self.object(|p, _| p.skip_value()),
            b'-' | b'0'..=b'9' => self.number().map(drop),
            other => Err(self.error(&format!("unexpected `{}`", other as char))),
        }
    }

    /// An array (the caller peeked `[`); `item` consumes one element.
    fn array(&mut self, mut item: impl FnMut(&mut Self) -> Result<(), Error>) -> Result<(), Error> {
        self.expect(b'[')?;
        self.descend()?;
        if self.peek()? != b']' {
            loop {
                item(self)?;
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => break,
                    _ => return Err(self.error("expected `,` or `]`")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// An object (the caller peeked `{`); `value` is given each key and
    /// consumes that key's value.
    fn object(
        &mut self,
        mut value: impl FnMut(&mut Self, Text) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(b'{')?;
        self.descend()?;
        if self.peek()? != b'}' {
            loop {
                if self.peek()? != b'"' {
                    return Err(self.error("expected object key"));
                }
                let key = self.string()?;
                self.expect(b':')?;
                value(self, key)?;
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => break,
                    _ => return Err(self.error("expected `,` or `}`")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn text(&self, text: Text) -> &str {
        text.of(self.json, &self.arena.decoded)
    }

    /// A string literal (the caller peeked `"`). Without an escape it is a
    /// range of the input; with one it is decoded into the arena.
    fn string(&mut self) -> Result<Text, Error> {
        let start = self.pos + 1;
        self.pos = start;
        self.seek_quote_or_backslash()?;
        if self.bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(Text {
                start,
                end: self.pos - 1,
                decoded: false,
            });
        }
        let decoded_start = self.arena.decoded.len();
        let mut run = start;
        loop {
            // `pos` is at a `"` or a `\`: both ASCII, so `run..pos` is whole
            // characters.
            self.arena.decoded.push_str(&self.json[run..self.pos]);
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(Text {
                    start: decoded_start,
                    end: self.arena.decoded.len(),
                    decoded: true,
                });
            }
            let c = self.escape()?;
            self.arena.decoded.push(c);
            run = self.pos;
            self.seek_quote_or_backslash()?;
        }
    }

    /// Advances to the next `"` or `\` of a string literal.
    fn seek_quote_or_backslash(&mut self) -> Result<(), Error> {
        self.pos += self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| Error::custom("unterminated string"))?;
        Ok(())
    }

    /// One escape sequence (`pos` is at its backslash).
    fn escape(&mut self) -> Result<char, Error> {
        let esc = *self
            .bytes
            .get(self.pos + 1)
            .ok_or_else(|| Error::custom("unterminated escape"))?;
        self.pos += 2;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    self.literal("\\u")?;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(self.error("unpaired surrogate escape ending"));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                // A lone low surrogate is not a scalar value.
                char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape ending"))?
            }
            other => {
                return Err(self.error(&format!("invalid escape `\\{}` ending", other as char)))
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .json
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape ending"))
    }

    /// A number (the caller peeked `-` or a digit), classified as the
    /// vendored `serde_json` does so that [`Number::as_u64`] means the same.
    fn number(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        if self.bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.json[start..self.pos];
        let float = || {
            text.parse()
                .map(Number::Float)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        };
        if is_float {
            float()
        } else if text.starts_with('-') {
            text.parse().map(Number::NegInt).or_else(|_| float())
        } else {
            text.parse().map(Number::PosInt).or_else(|_| float())
        }
    }
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

/// A parsed document: the arena and the text its ranges point into.
struct Doc<'a> {
    json: &'a str,
    arena: &'a Arena,
}

impl<'a> Doc<'a> {
    fn text(&self, text: Text) -> &'a str {
        text.of(self.json, &self.arena.decoded)
    }
}

/// One trace being linked: its records and its filled-in tables.
struct Linked<'a> {
    doc: &'a Doc<'a>,
    trace: &'a TraceRec,
    spans: &'a [SpanRec],
    processes: &'a [ProcessRec],
    tables: &'a LinkTables,
}

/// Links one trace into a span tree; any defect fails only this trace.
///
/// The checks, their order and the points at which names are interned are
/// the old `import_one`'s: a trace that is dropped half-way has interned
/// exactly the names it had then.
fn link(
    doc: &Doc<'_>,
    trace: &TraceRec,
    tables: &mut LinkTables,
    interner: &mut Interner,
) -> Result<TimestampedTrace, ImportError> {
    let trace_id = || doc.text(trace.id).to_owned();
    // Fault probe: `trace.span` marks this trace malformed.
    if fault::fail_point("trace.span") {
        return Err(ImportError::NoRoot(format!(
            "{} (injected trace.span fault)",
            trace_id()
        )));
    }
    let spans = &doc.arena.spans[trace.spans.clone()];
    let processes = &doc.arena.processes[trace.processes.clone()];
    let id = |s: usize| doc.text(spans[s].id);
    let n = spans.len();

    // Group spans by id: sorted by (id, position), a run's first entry is
    // the group. Sorting, not hashing: ids are outside input, and a sort has
    // no keys to collide.
    let LinkTables {
        by_id,
        group,
        parent,
        child_start,
        children,
        cursor,
        process_by_id,
    } = tables;
    by_id.clear();
    by_id.extend(0..n);
    by_id.sort_unstable_by(|&a, &b| id(a).cmp(id(b)).then(a.cmp(&b)));
    group.clear();
    group.resize(n, 0);
    let mut first = 0;
    for (k, &s) in by_id.iter().enumerate() {
        if id(s) != id(by_id[first]) {
            first = k;
        }
        group[s] = by_id[first];
    }
    process_by_id.clear();
    process_by_id.extend(0..processes.len());
    process_by_id.sort_unstable_by(|&a, &b| {
        let id = |p: usize| doc.text(processes[p].id);
        id(a).cmp(id(b)).then(a.cmp(&b))
    });

    // Resolve parents in document order.
    const NO_PARENT: usize = usize::MAX;
    let mut root = None;
    parent.clear();
    child_start.clear();
    child_start.resize(n + 1, 0);
    for (s, span) in spans.iter().enumerate() {
        let Some(wanted) = span.parent else {
            root = root.or(Some(s));
            parent.push(NO_PARENT);
            continue;
        };
        let wanted = doc.text(wanted);
        let k = by_id.partition_point(|&s| id(s) < wanted);
        match by_id.get(k) {
            Some(&g) if id(g) == wanted => {
                parent.push(g);
                child_start[g + 1] += 1;
            }
            _ => return Err(ImportError::DanglingParent(id(s).to_owned())),
        }
    }
    let root = root.ok_or_else(|| ImportError::NoRoot(trace_id()))?;

    // Child lists in CSR form, siblings in document order.
    for g in 0..n {
        child_start[g + 1] += child_start[g];
    }
    cursor.clear();
    cursor.extend_from_slice(&child_start[..n]);
    children.clear();
    children.resize(child_start[n], 0);
    for (s, &g) in parent.iter().enumerate() {
        if g != NO_PARENT {
            children[cursor[g]] = s;
            cursor[g] += 1;
        }
    }

    let linked = Linked {
        doc,
        trace,
        spans,
        processes,
        tables,
    };
    // Endpoint convention: synthetic __api__ root or the root itself.
    let api_name = doc.text(spans[root].operation);
    let real_root = if linked.service(root)? == "__api__" {
        linked.children(root).first().copied()
    } else {
        Some(root)
    };
    let api = interner.intern(api_name);
    let real_root = real_root.ok_or_else(|| ImportError::NoRoot(trace_id()))?;
    // Duplicate span ids can make the child lists expand the same subtree
    // under several parents; a tree that honestly mirrors the document can
    // never hold more nodes than the document holds spans.
    let mut budget = n;
    let tree = linked.build(real_root, interner, 0, &mut budget)?;
    let start_micros = spans.iter().map(|s| s.start_time).min().unwrap_or(0);
    Ok(TimestampedTrace {
        at_secs: start_micros as f64 / 1e6,
        trace: Trace::new(api, tree),
    })
}

impl Linked<'_> {
    fn children(&self, span: usize) -> &[usize] {
        let g = self.tables.group[span];
        &self.tables.children[self.tables.child_start[g]..self.tables.child_start[g + 1]]
    }

    /// The service name of `span`'s process; of a repeated process id the
    /// last entry counts.
    fn service(&self, span: usize) -> Result<&str, ImportError> {
        let wanted = self.doc.text(self.spans[span].process);
        let id = |p: usize| self.doc.text(self.processes[p].id);
        let by_id = &self.tables.process_by_id;
        let k = by_id.partition_point(|&p| id(p) <= wanted);
        match k.checked_sub(1).map(|k| by_id[k]) {
            Some(p) if id(p) == wanted => Ok(self.doc.text(self.processes[p].service)),
            _ => Err(ImportError::UnknownProcess(wanted.to_owned())),
        }
    }

    fn build(
        &self,
        span: usize,
        interner: &mut Interner,
        depth: usize,
        budget: &mut usize,
    ) -> Result<SpanNode, ImportError> {
        let trace_id = || self.doc.text(self.trace.id).to_owned();
        if depth >= MAX_SPAN_DEPTH {
            return Err(ImportError::TooDeep(trace_id()));
        }
        if *budget == 0 {
            return Err(ImportError::Oversized(trace_id()));
        }
        *budget -= 1;
        let component = interner.intern(self.service(span)?);
        let operation = interner.intern(self.doc.text(self.spans[span].operation));
        let kids = self.children(span);
        let mut children = Vec::with_capacity(kids.len());
        for &kid in kids {
            children.push(self.build(kid, interner, depth + 1, budget)?);
        }
        Ok(SpanNode::with_children(component, operation, children))
    }
}
