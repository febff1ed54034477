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
//! The tokenizer is one cursor that never rests on whitespace: every token
//! consumes the whitespace after it, runs of spaces a [`Word`] (sixteen
//! bytes) at a time, so a `peek` is one load. String ends are found a word
//! at a time by a SWAR test for `"` and `\` (every byte of the word tested
//! at once, in integer registers). A key the Jaeger shape reads is matched
//! with its quotes and colon as one masked word against each known spelling,
//! and a record reads its fields in a plain loop. Text that is not JSON is a
//! [`Fail`]: a static reason and a byte offset, `Copy` and two words, which
//! becomes a `serde_json::Error` once, at the document boundary.
//!
//! Nothing touches the [`Interner`] until the whole document has parsed, so
//! a document-level error leaves it as it was. Only then does [`link`] turn
//! each trace's records into a span tree: ids are sorted and looked up on an
//! integer [`IdKey`], bytes compared only when two keys tie, and names reach
//! the interner through a per-document memo.
//!
//! The accept set is that of the serde derive this replaced (kept under
//! `cfg(test)` as the oracle in `jaeger/oracle.rs`): keys in any order, a
//! repeated key's last value wins, a missing or wrongly-typed required field
//! fails the document. That is why a shape mismatch does not abort the parse
//! but travels upward as `Ok(false)`: a later duplicate of an enclosing key
//! may still replace the offending value.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::ops::Range;

use deeprest_fault as fault;
use deeprest_telemetry as telemetry;
use serde_json::{Error, Number};

use super::ImportError;
use crate::window::TimestampedTrace;
use crate::{Interner, SpanNode, Sym, Trace};

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
    /// The text's bytes, given the document and its arena's `decoded` buffer.
    fn bytes<'a>(self, json: &'a str, decoded: &'a str) -> &'a [u8] {
        let source = if self.decoded { decoded } else { json };
        &source.as_bytes()[self.start..self.end]
    }
}

/// An id or name reduced to one integer: its length in the top byte (255
/// from 255 bytes on), then its first seven and its last eight bytes,
/// big-endian; under eight bytes, all of them in both fields. Up to fifteen
/// bytes the key is exact, and same-length ids order as their bytes do, so
/// numbered ids arrive sorted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct IdKey(u128);

impl IdKey {
    fn of(id: &[u8]) -> Self {
        let (head, tail) = match (id.first_chunk(), id.last_chunk()) {
            (Some(head), Some(tail)) => (u64::from_be_bytes(*head) >> 8, u64::from_be_bytes(*tail)),
            _ => {
                let all = id.iter().fold(0, |w, &b| w << 8 | u64::from(b));
                (all << (8 * (7 - id.len())), all)
            }
        };
        let len = id.len().min(0xff) as u128;
        IdKey(len << 120 | u128::from(head) << 64 | u128::from(tail))
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
    /// Span positions sorted by id, then position.
    by_id: IdIndex,
    /// The first span carrying the same id: spans sharing an id share one
    /// child list, as they shared one key of the old `children` map.
    group: Vec<usize>,
    /// `(group of the parent, child)` for every span with a parent, sorted:
    /// each group's children are one run, in document order.
    kids: Vec<(usize, usize)>,
    /// Process positions sorted by id, then position.
    process_by_id: IdIndex,
    /// The names the document has interned, direct-mapped on their keys.
    names: Vec<Option<(Id, Sym)>>,
}

/// Slots of [`LinkTables::names`].
const NAME_SLOTS: usize = 256;

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
    {
        let _parse = telemetry::span("trace.jaeger.parse");
        Parser::parse(json, &mut scratch.arena).map_err(ImportError::Json)?;
    }
    let _link = telemetry::span("trace.jaeger.link");
    let arena = &scratch.arena;
    let doc = Doc { json, arena };
    let tables = &mut scratch.tables;
    tables.names.clear();
    tables.names.resize(NAME_SLOTS, None);
    let mut traces = Vec::with_capacity(arena.traces.len());
    for trace in &arena.traces {
        match link(&doc, trace, tables, interner) {
            Ok(t) => traces.push(t),
            Err(err) => dropped(err),
        }
    }
    Ok(traces)
}

// ---------------------------------------------------------------------------
// Parse
// ---------------------------------------------------------------------------

/// Why the text is not JSON, and the byte offset where that showed. The
/// reason is a thin pointer, so this is two words and the tokenizer's
/// `Result`s return in registers.
#[derive(Clone, Copy, Debug)]
struct Fail {
    why: &'static &'static str,
    at: usize,
}

impl From<Fail> for Error {
    fn from(Fail { why, at }: Fail) -> Self {
        Error::custom(format!("{why} at byte {at}"))
    }
}

/// What the scans read at once: sixteen bytes hold most indents, ids and
/// names of an exported document, and every key the shape reads quoted.
type Word = u128;
const WORD: usize = std::mem::size_of::<Word>();

/// `name` spelled as it opens a field, `"name":`, packed little-endian into
/// a word; 0, which spells no key, when that takes more than a word.
const fn quoted(name: &[u8]) -> Word {
    if name.len() + 3 > WORD {
        return 0;
    }
    let (mut word, mut i) = ((b':' as Word) << 8 | b'"' as Word, name.len());
    while i > 0 {
        i -= 1;
        word = word << 8 | name[i] as Word;
    }
    word << 8 | b'"' as Word
}

// The keys the Jaeger shape reads, as `quoted` spells them.
const DATA: Word = quoted(b"data");
const TRACE_ID: Word = quoted(b"traceID");
const SPANS: Word = quoted(b"spans");
const PROCESSES: Word = quoted(b"processes");
const SPAN_ID: Word = quoted(b"spanID");
const OPERATION: Word = quoted(b"operationName");
const PROCESS_ID: Word = quoted(b"processID");
const REFERENCES: Word = quoted(b"references");
const START_TIME: Word = quoted(b"startTime");
const DURATION: Word = quoted(b"duration");
const REF_TYPE: Word = quoted(b"refType");
const SERVICE: Word = quoted(b"serviceName");
/// All of them, the most frequent first.
const KEYS: [Word; 12] = [
    SPAN_ID, TRACE_ID, REF_TYPE, OPERATION, REFERENCES, PROCESS_ID, START_TIME, DURATION, SERVICE,
    SPANS, PROCESSES, DATA,
];

/// `b` in each byte of a word.
const fn splat(b: u8) -> Word {
    Word::MAX / 0xff * b as Word
}

/// The index of the first `"` or `\` in `w`; `WORD` when there is none.
/// The high bit of each zero byte of `x` is set by `x - 1 & !x & 0x80`
/// bytewise; bits above the lowest may be false (a borrow carries), so
/// only the trailing zeros are read.
fn quote_or_backslash(w: Word) -> usize {
    let zero_bytes = |x: Word| x.wrapping_sub(splat(1)) & !x & splat(0x80);
    let hits = zero_bytes(w ^ splat(b'"')) | zero_bytes(w ^ splat(b'\\'));
    (hits.trailing_zeros() / 8) as usize
}

struct Parser<'a> {
    json: &'a str,
    bytes: &'a [u8],
    /// Never on whitespace between tokens: each token consumes what follows.
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
        p.skip_ws();
        let shaped = p.document()?;
        if p.pos != p.bytes.len() {
            return Err(p.fail(&"trailing characters").into());
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

    fn document(&mut self) -> Result<bool, Fail> {
        let mut data = false;
        let mut more = self.record()?;
        while more {
            if self.key()? == DATA {
                self.arena.traces.clear();
                self.arena.spans.clear();
                self.arena.processes.clear();
                data = self.list_of(Self::trace)?;
            } else {
                self.skip_value()?;
            }
            more = self.next(b'}')?;
        }
        Ok(data)
    }

    fn trace(&mut self) -> Result<bool, Fail> {
        let span_mark = self.arena.spans.len();
        let process_mark = self.arena.processes.len();
        let (mut id, mut spans, mut processes) = (None, false, false);
        let mut more = self.record()?;
        while more {
            match self.key()? {
                TRACE_ID => id = self.string_field()?,
                SPANS => {
                    self.arena.spans.truncate(span_mark);
                    spans = self.list_of(Self::span)?;
                }
                PROCESSES => {
                    self.arena.processes.truncate(process_mark);
                    processes = self.processes()?;
                }
                _ => self.skip_value()?,
            }
            more = self.next(b'}')?;
        }
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

    fn span(&mut self) -> Result<bool, Fail> {
        let (mut trace_id, mut id, mut operation, mut process) = (None, None, None, None);
        // Optional fields: absent is fine, present must have the type.
        let (mut parent, mut references) = (None, true);
        let (mut start_time, mut duration) = (Some(0), Some(0));
        let mut more = self.record()?;
        while more {
            match self.key()? {
                TRACE_ID => trace_id = self.string_field()?,
                SPAN_ID => id = self.string_field()?,
                OPERATION => operation = self.string_field()?,
                PROCESS_ID => process = self.string_field()?,
                REFERENCES => {
                    // The first `CHILD_OF` reference names the parent.
                    parent = None;
                    references = self.list_of(|p| {
                        let reference = p.reference()?;
                        if let (None, Some((ref_type, id))) = (parent, reference) {
                            let ref_type = ref_type.bytes(p.json, &p.arena.decoded);
                            parent = (ref_type == b"CHILD_OF").then_some(id);
                        }
                        Ok(reference.is_some())
                    })?;
                }
                START_TIME => start_time = self.u64_field()?,
                DURATION => duration = self.u64_field()?,
                _ => self.skip_value()?,
            }
            more = self.next(b'}')?;
        }
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
    fn reference(&mut self) -> Result<Option<(Text, Text)>, Fail> {
        let (mut ref_type, mut id) = (None, None);
        let mut more = self.record()?;
        while more {
            match self.key()? {
                REF_TYPE => ref_type = self.string_field()?,
                SPAN_ID => id = self.string_field()?,
                _ => self.skip_value()?,
            }
            more = self.next(b'}')?;
        }
        Ok(ref_type.zip(id))
    }

    fn processes(&mut self) -> Result<bool, Fail> {
        if self.peek()? != b'{' {
            self.skip_value()?;
            return Ok(false);
        }
        // Ids whose value was not a process: fatal unless the id is repeated
        // with a good one (a map keeps the last value of a key).
        let mut misshapen = Vec::new();
        let mut more = self.enter(b'}')?;
        while more {
            let id = self.key_text()?;
            let mut service = None;
            let mut fields = self.record()?;
            while fields {
                match self.key()? {
                    SERVICE => service = self.string_field()?,
                    _ => self.skip_value()?,
                }
                fields = self.next(b'}')?;
            }
            match service {
                Some(service) => self.arena.processes.push(ProcessRec { id, service }),
                None => misshapen.push((id, self.arena.processes.len())),
            }
            more = self.next(b'}')?;
        }
        let text = |t: Text| t.bytes(self.json, &self.arena.decoded);
        Ok(misshapen.iter().all(|&(id, next)| {
            let later = &self.arena.processes[next..];
            later.iter().any(|p| text(p.id) == text(id))
        }))
    }

    /// Opens the record at `pos`: `Ok(true)` when it is an object with a key
    /// to read. Any other value is skipped and has no fields: the caller's
    /// required ones stay unset, which is how it learns.
    fn record(&mut self) -> Result<bool, Fail> {
        if self.peek()? == b'{' {
            self.enter(b'}')
        } else {
            self.skip_value().map(|()| false)
        }
    }

    /// An array whose every element `item` finds well-shaped.
    fn list_of(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<bool, Fail>,
    ) -> Result<bool, Fail> {
        if self.peek()? != b'[' {
            self.skip_value()?;
            return Ok(false);
        }
        let (mut more, mut shaped) = (self.enter(b']')?, true);
        while more {
            shaped &= item(self)?;
            more = self.next(b']')?;
        }
        Ok(shaped)
    }

    fn string_field(&mut self) -> Result<Option<Text>, Fail> {
        if self.peek()? == b'"' {
            self.string().map(Some)
        } else {
            self.skip_value()?;
            Ok(None)
        }
    }

    /// What [`Number::as_u64`] makes of a number; `None` for any other value.
    fn u64_field(&mut self) -> Result<Option<u64>, Fail> {
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            self.skip_value()?;
            return Ok(None);
        }
        self.number().map(Number::as_u64)
    }

    // -- JSON ---------------------------------------------------------------
    //
    // The grammar is the vendored `serde_json`'s, leniencies included (raw
    // control characters in strings, `01`, `1.`, a sign inside `\u`): the
    // oracle parses with it and the two must accept the same texts.

    fn fail(&self, why: &'static &'static str) -> Fail {
        Fail { why, at: self.pos }
    }

    /// The [`WORD`] bytes from `at` as one little-endian word, if there are
    /// that many left.
    fn word(&self, at: usize) -> Option<Word> {
        let word = self.bytes.get(at..)?.first_chunk()?;
        Some(Word::from_le_bytes(*word))
    }

    /// Steps over whitespace: runs of spaces a word at a time, the rest
    /// bytewise.
    fn skip_ws(&mut self) {
        loop {
            match self.bytes.get(self.pos) {
                Some(b' ') => {
                    self.pos += self
                        .word(self.pos)
                        .map_or(1, |w| ((w ^ splat(b' ')).trailing_zeros() / 8) as usize);
                }
                Some(b'\t' | b'\n' | b'\r') => self.pos += 1,
                _ => return,
            }
        }
    }

    /// The byte at `pos`, not consumed.
    fn peek(&self) -> Result<u8, Fail> {
        (self.bytes.get(self.pos).copied()).ok_or(self.fail(&"unexpected end of JSON"))
    }

    /// Consumes the byte at `pos` (the caller peeked it) and the whitespace
    /// after it.
    fn bump(&mut self) {
        self.pos += 1;
        self.skip_ws();
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), Fail> {
        if !self.bytes[self.pos..].starts_with(word) {
            return Err(self.fail(&"unexpected character"));
        }
        self.pos += word.len();
        self.skip_ws();
        Ok(())
    }

    /// Opens the array or object whose bracket is at `pos`; `Ok(false)`
    /// when it is empty, and then already closed.
    fn enter(&mut self, close: u8) -> Result<bool, Fail> {
        self.bump();
        self.depth += 1;
        if self.depth >= MAX_NESTING {
            return Err(self.fail(&"nesting deeper than the recursion limit"));
        }
        if self.peek()? != close {
            return Ok(true);
        }
        self.bump();
        self.depth -= 1;
        Ok(false)
    }

    /// After an element: `Ok(true)` past a `,`, `Ok(false)` past `close`.
    fn next(&mut self, close: u8) -> Result<bool, Fail> {
        match self.peek()? {
            b',' => {
                self.bump();
                Ok(true)
            }
            b if b == close => {
                self.bump();
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.fail(&"unexpected character")),
        }
    }

    /// An object key and the `:` after it.
    fn key_text(&mut self) -> Result<Text, Fail> {
        if self.peek()? != b'"' {
            return Err(self.fail(&"unexpected character"));
        }
        let key = self.string()?;
        if self.peek()? != b':' {
            return Err(self.fail(&"unexpected character"));
        }
        self.bump();
        Ok(key)
    }

    /// [`Parser::key_text`] as [`quoted`] spells it; the key is not kept.
    /// One the Jaeger shape reads, unescaped and followed straight by its
    /// colon, is matched as one word against each of [`KEYS`], with no scan.
    fn key(&mut self) -> Result<Word, Fail> {
        if let Some(w) = self.word(self.pos) {
            for key in KEYS {
                let unused = key.leading_zeros() as usize / 8;
                if w & (Word::MAX >> (8 * unused)) == key {
                    self.pos += WORD - unused;
                    self.skip_ws();
                    return Ok(key);
                }
            }
        }
        let mark = self.arena.decoded.len();
        let key = self.key_text()?;
        let key = quoted(key.bytes(self.json, &self.arena.decoded));
        self.arena.decoded.truncate(mark);
        Ok(key)
    }

    /// Validates any one value and keeps nothing of it. The recursion is as
    /// deep as the nesting, which [`MAX_NESTING`] bounds.
    fn skip_value(&mut self) -> Result<(), Fail> {
        match self.peek()? {
            b'[' => self.list_of(|p| p.skip_value().map(|()| true)).map(drop),
            b'{' => {
                let mut more = self.record()?;
                while more {
                    self.key()?;
                    self.skip_value()?;
                    more = self.next(b'}')?;
                }
                Ok(())
            }
            b'"' => {
                let mark = self.arena.decoded.len();
                self.string()?;
                self.arena.decoded.truncate(mark);
                Ok(())
            }
            b'n' => self.literal(b"null"),
            b't' => self.literal(b"true"),
            b'f' => self.literal(b"false"),
            b'-' | b'0'..=b'9' => self.number().map(drop),
            _ => Err(self.fail(&"unexpected character")),
        }
    }

    /// A string literal (the caller peeked `"`). Without an escape it is a
    /// range of the input; with one it is decoded into the arena.
    fn string(&mut self) -> Result<Text, Fail> {
        let start = self.pos + 1;
        self.pos = start;
        self.seek_quote_or_backslash()?;
        let mut text = Text {
            start,
            end: self.pos,
            decoded: false,
        };
        if self.bytes[self.pos] == b'\\' {
            let decoded_start = self.arena.decoded.len();
            let mut run = start;
            while self.bytes[self.pos] == b'\\' {
                // `run..pos` ends at a `\`, so it is whole characters.
                self.arena.decoded.push_str(&self.json[run..self.pos]);
                let c = self.escape()?;
                self.arena.decoded.push(c);
                run = self.pos;
                self.seek_quote_or_backslash()?;
            }
            self.arena.decoded.push_str(&self.json[run..self.pos]);
            text = Text {
                start: decoded_start,
                end: self.arena.decoded.len(),
                decoded: true,
            };
        }
        self.bump();
        Ok(text)
    }

    /// Advances to the next `"` or `\` of a string literal, a word at a
    /// time while a word is left.
    fn seek_quote_or_backslash(&mut self) -> Result<(), Fail> {
        while let Some(w) = self.word(self.pos) {
            let at = quote_or_backslash(w);
            self.pos += at;
            if at < WORD {
                return Ok(());
            }
        }
        let tail = self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\');
        self.pos += tail.ok_or(Fail {
            why: &"unexpected end of JSON",
            at: self.bytes.len(),
        })?;
        Ok(())
    }

    /// One escape sequence (`pos` is at its backslash).
    fn escape(&mut self) -> Result<char, Fail> {
        let Some(&esc) = self.bytes.get(self.pos + 1) else {
            return Err(self.fail(&"invalid escape"));
        };
        self.pos += 2;
        Ok(match esc {
            b'"' | b'\\' | b'/' => char::from(esc),
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.fail(&"invalid escape"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(self.fail(&"invalid escape"));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                // A lone low surrogate is not a scalar value.
                char::from_u32(code).ok_or(self.fail(&"invalid escape"))?
            }
            _ => return Err(self.fail(&"invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Fail> {
        let Some(digits) = self.json.get(self.pos..self.pos + 4) else {
            return Err(self.fail(&"invalid escape"));
        };
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|_| self.fail(&"invalid escape"))
    }

    /// A number (the caller peeked `-` or a digit), classified as the
    /// vendored `serde_json` does so that [`Number::as_u64`] means the same:
    /// a `.`, `e`, `E`, `+` or an inner `-` makes it a float. Up to 19 plain
    /// digits are below 10^19 < 2^64, a `PosInt` read here without a parse.
    fn number(&mut self) -> Result<Number, Fail> {
        let at = self.pos;
        self.pos += usize::from(self.bytes[self.pos] == b'-');
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.json[at..self.pos];
        self.skip_ws();
        let float = || text.parse().ok().map(Number::Float);
        let number = if is_float {
            float()
        } else if text.starts_with('-') {
            text.parse().ok().map(Number::NegInt).or_else(float)
        } else if text.len() <= 19 {
            Some(Number::PosInt(
                text.bytes().fold(0, |n, d| n * 10 + u64::from(d - b'0')),
            ))
        } else {
            text.parse().ok().map(Number::PosInt).or_else(float)
        };
        number.ok_or(Fail {
            why: &"invalid number",
            at,
        })
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
    /// The text as a `str`: its ends are at characters, so this never
    /// fails.
    fn text(&self, text: Text) -> &'a str {
        std::str::from_utf8(self.bytes(text)).unwrap_or_default()
    }

    fn bytes(&self, text: Text) -> &'a [u8] {
        text.bytes(self.json, &self.arena.decoded)
    }

    fn id(&self, text: Text) -> Id {
        (IdKey::of(self.bytes(text)), text)
    }

    /// A total order on ids that is consistent with their equality: by key,
    /// and by bytes only when the keys of two ids of over fifteen bytes tie.
    #[inline]
    fn cmp_ids(&self, (a, a_text): Id, (b, b_text): Id) -> Ordering {
        match a.cmp(&b) {
            Ordering::Equal if a.0 >> 120 >= 16 => self.bytes(a_text).cmp(self.bytes(b_text)),
            order => order,
        }
    }
}

/// An id or name with its key.
type Id = (IdKey, Text);

/// Positions of a trace's spans or process entries with their ids, sorted by
/// id and then position: a run of equal ids is contiguous, document order
/// inside it. Sorting, not hashing: ids are outside input, and a sort has no
/// keys to collide.
#[derive(Debug, Default)]
struct IdIndex(Vec<(Id, usize)>);

impl IdIndex {
    fn fill(&mut self, ids: impl Iterator<Item = Text>, doc: &Doc<'_>) {
        self.0.clear();
        self.0.extend(ids.map(|id| doc.id(id)).zip(0..));
        self.0
            .sort_unstable_by(|&(a, i), &(b, j)| doc.cmp_ids(a, b).then(i.cmp(&j)));
    }

    /// The first position whose id is `wanted`, or with `last` the last.
    fn find(&self, wanted: Text, last: bool, doc: &Doc<'_>) -> Option<usize> {
        let wanted = doc.id(wanted);
        let order = |&(id, _): &(Id, usize)| doc.cmp_ids(id, wanted);
        // Ties sort before `wanted` for the last, after it for the first.
        let tie = (!last).cmp(&last);
        let at = self.0.partition_point(|e| order(e).then(tie).is_lt());
        let found = self.0.get(if last { at.checked_sub(1)? } else { at })?;
        order(found).is_eq().then_some(found.1)
    }
}

/// One trace being linked: its records, its filled-in tables (the
/// document's name memo among them) and the interner.
struct Linked<'a> {
    doc: &'a Doc<'a>,
    trace: &'a TraceRec,
    spans: &'a [SpanRec],
    processes: &'a [ProcessRec],
    tables: &'a mut LinkTables,
    interner: &'a mut Interner,
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

    // Group spans by id: a run's first entry is the group.
    let (by_id, group) = (&mut tables.by_id, &mut tables.group);
    by_id.fill(spans.iter().map(|s| s.id), doc);
    group.clear();
    group.resize(spans.len(), 0);
    let mut first = 0;
    for (k, &(id, s)) in by_id.0.iter().enumerate() {
        if !doc.cmp_ids(id, by_id.0[first].0).is_eq() {
            first = k;
        }
        group[s] = by_id.0[first].1;
    }
    (tables.process_by_id).fill(processes.iter().map(|p| p.id), doc);

    // Resolve parents in document order.
    let mut root = None;
    tables.kids.clear();
    for (s, span) in spans.iter().enumerate() {
        let Some(wanted) = span.parent else {
            root = root.or(Some(s));
            continue;
        };
        let Some(g) = tables.by_id.find(wanted, false, doc) else {
            return Err(ImportError::DanglingParent(doc.text(span.id).to_owned()));
        };
        tables.kids.push((g, s));
    }
    tables.kids.sort_unstable();
    let root = root.ok_or_else(|| ImportError::NoRoot(trace_id()))?;

    let mut linked = Linked {
        doc,
        trace,
        spans,
        processes,
        tables,
        interner,
    };
    // Endpoint convention: synthetic __api__ root or the root itself.
    let real_root = match doc.bytes(linked.service(root)?) {
        b"__api__" => linked
            .children(root)
            .next()
            .map(|k| linked.tables.kids[k].1),
        _ => Some(root),
    };
    let api = linked.sym(spans[root].operation);
    let real_root = real_root.ok_or_else(|| ImportError::NoRoot(trace_id()))?;
    // Duplicate span ids can make the child lists expand the same subtree
    // under several parents; a tree that honestly mirrors the document can
    // never hold more nodes than the document holds spans.
    let mut budget = spans.len();
    let tree = linked.build(real_root, 0, &mut budget)?;
    let start_micros = spans.iter().map(|s| s.start_time).min().unwrap_or(0);
    Ok(TimestampedTrace {
        at_secs: start_micros as f64 / 1e6,
        trace: Trace::new(api, tree),
    })
}

impl Linked<'_> {
    /// Where `span`'s children are in [`LinkTables::kids`].
    fn children(&self, span: usize) -> Range<usize> {
        let (g, kids) = (self.tables.group[span], &self.tables.kids);
        let start = kids.partition_point(|&(p, _)| p < g);
        start..start + kids[start..].iter().take_while(|&&(p, _)| p == g).count()
    }

    /// The service name of `span`'s process; of a repeated process id the
    /// last entry counts.
    fn service(&self, span: usize) -> Result<Text, ImportError> {
        let wanted = self.spans[span].process;
        let Some(p) = self.tables.process_by_id.find(wanted, true, self.doc) else {
            return Err(ImportError::UnknownProcess(
                self.doc.text(wanted).to_owned(),
            ));
        };
        Ok(self.processes[p].service)
    }

    /// The symbol of `name`. The memo is direct-mapped on the name's key: a
    /// hit skips hashing the whole name into the interner's map, and a
    /// collision replaces the slot, so each lookup costs one slot whatever
    /// the document holds. Every name still reaches [`Interner::intern`] on
    /// its first use, so the symbols and their numbering are its own.
    fn sym(&mut self, name: Text) -> Sym {
        let name = self.doc.id(name);
        let mix = (name.0 .0 as u64 ^ (name.0 .0 >> 64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let slot = &mut self.tables.names[(mix >> 32) as usize % NAME_SLOTS];
        match *slot {
            Some((known, sym)) if self.doc.cmp_ids(known, name).is_eq() => sym,
            _ => {
                let sym = self.interner.intern(self.doc.text(name.1));
                *slot = Some((name, sym));
                sym
            }
        }
    }

    fn build(
        &mut self,
        span: usize,
        depth: usize,
        budget: &mut usize,
    ) -> Result<SpanNode, ImportError> {
        let trace_id = || self.doc.text(self.trace.id).to_owned();
        if depth >= SpanNode::MAX_DEPTH {
            return Err(ImportError::TooDeep(trace_id()));
        }
        if *budget == 0 {
            return Err(ImportError::Oversized(trace_id()));
        }
        *budget -= 1;
        let component = self.service(span)?;
        let component = self.sym(component);
        let operation = self.sym(self.spans[span].operation);
        let kids = self.children(span);
        let mut children = Vec::with_capacity(kids.len());
        for k in kids {
            children.push(self.build(self.tables.kids[k].1, depth + 1, budget)?);
        }
        Ok(SpanNode::with_children(component, operation, children))
    }
}
