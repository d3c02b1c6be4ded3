//! Saved scenarios: a dependency-free JSON persistence layer.
//!
//! Every experiment so far was a hand-built [`Scenario`] in a compiled
//! binary. This module makes scenarios *data*: [`save_scenario`] writes a
//! [`SavedScenario`] — the full `Scenario` surface plus an optional
//! closed-loop [`PolicyChoice`] — as a canonical, versioned JSON document
//! (`"format": 1`), and [`load_scenario`] reads one back with typed,
//! position-carrying [`ParseError`] diagnostics. The format is described
//! key by key in the repository's `SCHEMA.md`.
//!
//! The workspace takes no third-party dependency, so the JSON layer is
//! hand-rolled: a small recursive-descent parser over a [`Node`] tree that
//! records the source line/column of every value (with a nesting cap, so
//! hostile input is an error, not a stack overflow), and a canonical
//! writer.
//! Three properties make the format safe to commit as fixtures:
//!
//! * **Canonical output.** [`save_scenario`] emits keys in one fixed
//!   order with one fixed layout, so `save → load → save` is
//!   byte-identical (the `persist_roundtrip` suite pins this for every
//!   committed fixture). Numbers render through Rust's shortest-round-trip
//!   float formatting; integers (seeds included) stay exact through a
//!   dedicated unsigned-integer token, never an `f64`.
//! * **Strictness.** Unknown fields, duplicate keys, missing fields and
//!   wrong types are all rejected with a [`ParseError`] carrying the
//!   offending line and column — a fixture cannot silently drift from the
//!   schema. The `"format"` tag must equal [`FORMAT_VERSION`]; future
//!   revisions bump it rather than reinterpreting format-1 keys.
//! * **Completeness.** The document round-trips everything
//!   [`Scenario`] carries: deployment geometry, channel allocation,
//!   per-channel traffic (payloads, GTS demand, downlink), the BER choice
//!   with per-channel noise/loss offsets, CSMA/retry/beacon parameters,
//!   the transmit-power policy, the fault plan, replications, the master
//!   seed and shard count — plus the allocation-policy choice by name.
//!
//! The batch driver ([`crate::batch`]) executes directories or manifests
//! of saved scenarios as one deterministic job grid.

use std::fmt::{self, Write as _};

use wsn_mac::csma::CsmaParams;
use wsn_mac::{BeaconOrder, RetryPolicy};
use wsn_radio::{RadioModel, TxPowerLevel};
use wsn_units::{DBm, Seconds};

use crate::faults::FaultPlan;
use crate::network::TxPowerPolicy;
use crate::policy::{AllocationPolicy, GreedyRebalance, ProportionalFair, StaticAllocation};
use crate::scenario::TrafficSpec;
use crate::scenario::{BerChoice, ChannelAllocation, DeploymentSpec, PayloadSpec, Scenario};

use json::{arr, boolean, node, null, obj, string, uint};

/// The saved-scenario format revision this build writes and accepts.
pub const FORMAT_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Typed diagnostics
// ---------------------------------------------------------------------------

/// A parse or decode failure, pointing at the offending source position.
///
/// `line` and `col` are 1-based; `col` counts characters. `expected`
/// describes what the parser or schema decoder required at that position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line of the offending token or value.
    pub line: u32,
    /// 1-based character column within that line.
    pub col: u32,
    /// What was required at that position (token class, type, or field).
    pub expected: String,
}

impl ParseError {
    fn at(line: u32, col: u32, expected: impl Into<String>) -> Self {
        ParseError {
            line,
            col,
            expected: expected.into(),
        }
    }

    pub(crate) fn node(node: &Node, expected: impl Into<String>) -> Self {
        ParseError::at(node.line, node.col, expected)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, col {}: expected {}",
            self.line, self.col, self.expected
        )
    }
}

impl std::error::Error for ParseError {}

/// A save failure: the scenario holds state format 1 cannot represent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaveError {
    /// The radio model is not the CC2420 characterization — format 1
    /// names radios rather than spelling out their power tables.
    UnsupportedRadio,
    /// A floating-point field is NaN or infinite.
    NonFinite(&'static str),
}

impl fmt::Display for SaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaveError::UnsupportedRadio => {
                write!(f, "format 1 only names the cc2420 radio model")
            }
            SaveError::NonFinite(field) => {
                write!(f, "field `{field}` is not a finite number")
            }
        }
    }
}

impl std::error::Error for SaveError {}

// ---------------------------------------------------------------------------
// The JSON value model
// ---------------------------------------------------------------------------

/// An object key with its source position (for unknown-field diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct Key {
    /// The key text.
    pub name: String,
    /// 1-based line of the key token.
    pub line: u32,
    /// 1-based column of the key token.
    pub col: u32,
}

/// A parsed JSON value.
///
/// Numbers split into [`Value::UInt`] (an unsigned integer token — exact
/// for 64-bit seeds) and [`Value::Float`] (everything signed, fractional
/// or exponent-bearing); decoders accept either where a float is wanted.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer token (no sign, fraction or exponent).
    UInt(u64),
    /// Any other finite number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Node>),
    /// An object: ordered key/value pairs (duplicates rejected at parse).
    Obj(Vec<(Key, Node)>),
}

/// A [`Value`] plus the source position where it began.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// 1-based source line.
    pub line: u32,
    /// 1-based character column.
    pub col: u32,
    /// The value.
    pub value: Value,
}

impl Node {
    fn type_name(&self) -> &'static str {
        match self.value {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::UInt(_) | Value::Float(_) => "a number",
            Value::Str(_) => "a string",
            Value::Arr(_) => "an array",
            Value::Obj(_) => "an object",
        }
    }
}

/// Builders for synthesized (position-less) [`Node`] trees — the shared
/// JSON-line construction util behind the batch result records
/// ([`crate::batch`]), the progress journal ([`crate::journal`]) and the
/// telemetry snapshot stream ([`crate::telemetry`]). Keys and nodes carry
/// line/column 0 (they come from no source file), and one escaping /
/// encoding path — [`render_compact`] — serves every emitter.
pub mod json {
    use super::{Key, Node, Value};

    /// A synthesized object key.
    pub fn key(name: &str) -> Key {
        Key {
            name: name.to_string(),
            line: 0,
            col: 0,
        }
    }

    /// A synthesized node wrapping `value`.
    pub fn node(value: Value) -> Node {
        Node {
            line: 0,
            col: 0,
            value,
        }
    }

    /// An object node from ordered `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Node)>) -> Node {
        node(Value::Obj(
            pairs.into_iter().map(|(k, v)| (key(k), v)).collect(),
        ))
    }

    /// An array node.
    pub fn arr(items: Vec<Node>) -> Node {
        node(Value::Arr(items))
    }

    /// A string node.
    pub fn string(s: &str) -> Node {
        node(Value::Str(s.to_string()))
    }

    /// An unsigned-integer node (exact — never routed through `f64`).
    pub fn uint(v: u64) -> Node {
        node(Value::UInt(v))
    }

    /// A number node; non-finite values become `null` (records are data
    /// streams — refuse nothing at emit time).
    pub fn num(x: f64) -> Node {
        if x.is_finite() {
            node(Value::Float(x))
        } else {
            node(Value::Null)
        }
    }

    /// A boolean node.
    pub fn boolean(b: bool) -> Node {
        node(Value::Bool(b))
    }

    /// A `null` node.
    pub fn null() -> Node {
        node(Value::Null)
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses a JSON document into a [`Node`] tree.
///
/// Accepts the JSON grammar with two deliberate restrictions: duplicate
/// object keys are an error (they would make "last writer wins" silently
/// drop data), and non-finite numbers cannot be written, hence never read.
///
/// # Errors
///
/// Returns a [`ParseError`] at the first offending character.
pub fn parse_document(text: &str) -> Result<Node, ParseError> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let node = p.value()?;
    p.skip_ws();
    if p.pos < p.chars.len() {
        return Err(ParseError::at(p.line, p.col, "end of document"));
    }
    Ok(node)
}

/// The deepest array/object nesting [`parse_document`] accepts. The
/// parser recurses once per level, so the cap keeps hostile input (a
/// megabyte of `[`) from overflowing the stack, which would abort the
/// process rather than return an error.
const MAX_DEPTH: usize = 64;

/// The most keys one object may hold. Every format-1 object has a fixed
/// set of fewer than 32 fields, and a duplicate key is found by scanning
/// the keys before it, so the cap keeps hostile input (tens of thousands
/// of distinct keys) from costing O(n²) before it is rejected.
const MAX_KEYS: usize = 64;

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    depth: usize,
}

impl Parser {
    fn new(text: &str) -> Self {
        Parser {
            chars: text.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn err(&self, expected: impl Into<String>) -> ParseError {
        ParseError::at(self.line, self.col, expected)
    }

    fn expect(&mut self, want: char) -> Result<(), ParseError> {
        match self.peek() {
            Some(c) if c == want => {
                self.bump();
                Ok(())
            }
            _ => Err(self.err(format!("`{want}`"))),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        for want in word.chars() {
            match self.peek() {
                Some(c) if c == want => {
                    self.bump();
                }
                _ => return Err(self.err(format!("`{word}`"))),
            }
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Node, ParseError> {
        self.skip_ws();
        let (line, col) = (self.line, self.col);
        let value = match self.peek() {
            None => return Err(self.err("a value")),
            Some('n') => self.literal("null", Value::Null)?,
            Some('t') => self.literal("true", Value::Bool(true))?,
            Some('f') => self.literal("false", Value::Bool(false))?,
            Some('"') => Value::Str(self.string()?),
            Some(c @ ('[' | '{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("no nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let nested = if c == '[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested?
            }
            Some(c) if c == '-' || c.is_ascii_digit() => self.number()?,
            Some(_) => return Err(self.err("a value")),
        };
        Ok(Node { line, col, value })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("closing `\"`")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| self.err("four hex digits after `\\u`"))?;
                            code = code * 16 + d;
                        }
                        let c = char::from_u32(code)
                            .ok_or_else(|| self.err("a valid unicode escape"))?;
                        out.push(c);
                    }
                    _ => return Err(self.err("a string escape")),
                },
                Some(c) if (c as u32) < 0x20 => {
                    return Err(self.err("no raw control characters in strings"))
                }
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let (line, col) = (self.line, self.col);
        let mut raw = String::new();
        let mut plain_uint = true;
        if self.peek() == Some('-') {
            plain_uint = false;
            raw.push(self.bump().unwrap());
        }
        if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("a digit"));
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            raw.push(self.bump().unwrap());
        }
        if self.peek() == Some('.') {
            plain_uint = false;
            raw.push(self.bump().unwrap());
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                raw.push(self.bump().unwrap());
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            plain_uint = false;
            raw.push(self.bump().unwrap());
            if matches!(self.peek(), Some('+' | '-')) {
                raw.push(self.bump().unwrap());
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("a digit in the exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                raw.push(self.bump().unwrap());
            }
        }
        if plain_uint {
            if let Ok(u) = raw.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        let x: f64 = raw
            .parse()
            .map_err(|_| ParseError::at(line, col, "a number"))?;
        if !x.is_finite() {
            return Err(ParseError::at(line, col, "a finite number"));
        }
        Ok(Value::Float(x))
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {
                    self.bump();
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("`,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect('{')?;
        let mut pairs: Vec<(Key, Node)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let (kline, kcol) = (self.line, self.col);
            if self.peek() != Some('"') {
                return Err(self.err("a string object key"));
            }
            if pairs.len() == MAX_KEYS {
                return Err(self.err(format!("no more than {MAX_KEYS} keys in an object")));
            }
            let name = self.string()?;
            if pairs.iter().any(|(k, _)| k.name == name) {
                return Err(ParseError::at(
                    kline,
                    kcol,
                    format!("no duplicate key `{name}`"),
                ));
            }
            self.skip_ws();
            self.expect(':')?;
            let node = self.value()?;
            pairs.push((
                Key {
                    name,
                    line: kline,
                    col: kcol,
                },
                node,
            ));
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some('}') => {
                    self.bump();
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("`,` or `}`")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Renders a [`Node`] tree in the canonical layout: 2-space indentation,
/// one key per line, trailing newline. [`save_scenario`] renders through
/// this, so re-rendering a parsed document reproduces it byte for byte.
pub fn render_document(node: &Node) -> String {
    let mut out = String::new();
    write_node(node, &mut out, 0);
    out.push('\n');
    out
}

/// Renders a [`Node`] tree on one line (the streamed result-record form).
pub fn render_compact(node: &Node) -> String {
    let mut out = String::new();
    write_compact(node, &mut out);
    out
}

// Writing into a `String` cannot fail, so the `write!` results below are
// ignored.
fn write_scalar(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Str(s) => write_str(s, out),
        Value::Arr(_) | Value::Obj(_) => unreachable!("containers handled by the caller"),
    }
}

/// Writes `s` as a quoted JSON string: string values and object keys.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `level` two-space indents.
fn write_indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_node(node: &Node, out: &mut String, indent: usize) {
    match &node.value {
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                write_indent(indent + 1, out);
                write_node(item, out, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            write_indent(indent, out);
            out.push(']');
        }
        Value::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, value)) in pairs.iter().enumerate() {
                write_indent(indent + 1, out);
                write_str(&key.name, out);
                out.push_str(": ");
                write_node(value, out, indent + 1);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            write_indent(indent, out);
            out.push('}');
        }
        scalar => write_scalar(scalar, out),
    }
}

fn write_compact(node: &Node, out: &mut String) {
    match &node.value {
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (key, value)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(&key.name, out);
                out.push(':');
                write_compact(value, out);
            }
            out.push('}');
        }
        scalar => write_scalar(scalar, out),
    }
}

// ---------------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------------

/// A strict object reader: required and optional fields, and an
/// unknown-field sweep on [`finish`](ObjReader::finish). The `as_*`
/// helpers below type-check the fields it hands out.
pub(crate) struct ObjReader<'a> {
    ctx: &'static str,
    line: u32,
    col: u32,
    pairs: &'a [(Key, Node)],
    used: Vec<bool>,
}

impl<'a> ObjReader<'a> {
    pub(crate) fn new(node: &'a Node, ctx: &'static str) -> Result<Self, ParseError> {
        match &node.value {
            Value::Obj(pairs) => Ok(ObjReader {
                ctx,
                line: node.line,
                col: node.col,
                pairs,
                used: vec![false; pairs.len()],
            }),
            _ => Err(ParseError::node(
                node,
                format!("an object ({}), found {}", ctx, node.type_name()),
            )),
        }
    }

    /// A required field.
    pub(crate) fn get(&mut self, key: &str) -> Result<&'a Node, ParseError> {
        self.opt(key).ok_or_else(|| {
            ParseError::at(
                self.line,
                self.col,
                format!("field `{key}` in {}", self.ctx),
            )
        })
    }

    /// A field that may be absent.
    pub(crate) fn opt(&mut self, key: &str) -> Option<&'a Node> {
        let i = self.pairs.iter().position(|(k, _)| k.name == key)?;
        self.used[i] = true;
        Some(&self.pairs[i].1)
    }

    /// Rejects the first field no getter asked for.
    pub(crate) fn finish(self) -> Result<(), ParseError> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !self.used[i] {
                return Err(ParseError::at(
                    k.line,
                    k.col,
                    format!("no field `{}` in {}", k.name, self.ctx),
                ));
            }
        }
        Ok(())
    }
}

pub(crate) fn as_f64(node: &Node) -> Result<f64, ParseError> {
    match node.value {
        Value::Float(x) => Ok(x),
        Value::UInt(u) => Ok(u as f64),
        _ => Err(ParseError::node(
            node,
            format!("a number, found {}", node.type_name()),
        )),
    }
}

pub(crate) fn as_u64(node: &Node) -> Result<u64, ParseError> {
    match node.value {
        Value::UInt(u) => Ok(u),
        _ => Err(ParseError::node(
            node,
            format!("a non-negative integer, found {}", node.type_name()),
        )),
    }
}

fn as_u32(node: &Node) -> Result<u32, ParseError> {
    u32::try_from(as_u64(node)?).map_err(|_| ParseError::node(node, "an integer within 32 bits"))
}

fn as_u8(node: &Node) -> Result<u8, ParseError> {
    u8::try_from(as_u64(node)?).map_err(|_| ParseError::node(node, "an integer within 8 bits"))
}

fn as_usize(node: &Node) -> Result<usize, ParseError> {
    usize::try_from(as_u64(node)?).map_err(|_| ParseError::node(node, "an unsigned integer"))
}

fn as_bool(node: &Node) -> Result<bool, ParseError> {
    match node.value {
        Value::Bool(b) => Ok(b),
        _ => Err(ParseError::node(
            node,
            format!("a boolean, found {}", node.type_name()),
        )),
    }
}

pub(crate) fn as_str(node: &Node) -> Result<&str, ParseError> {
    match &node.value {
        Value::Str(s) => Ok(s),
        _ => Err(ParseError::node(
            node,
            format!("a string, found {}", node.type_name()),
        )),
    }
}

pub(crate) fn as_arr(node: &Node) -> Result<&[Node], ParseError> {
    match &node.value {
        Value::Arr(items) => Ok(items),
        _ => Err(ParseError::node(
            node,
            format!("an array, found {}", node.type_name()),
        )),
    }
}

pub(crate) fn is_null(node: &Node) -> bool {
    matches!(node.value, Value::Null)
}

/// Accepts only the `"format"` tag [`FORMAT_VERSION`].
pub(crate) fn check_format(node: &Node) -> Result<(), ParseError> {
    match as_u64(node)? {
        FORMAT_VERSION => Ok(()),
        found => Err(ParseError::node(
            node,
            format!("format {FORMAT_VERSION} (found {found})"),
        )),
    }
}

// ---------------------------------------------------------------------------
// The saved-scenario surface
// ---------------------------------------------------------------------------

/// The allocation policy a saved scenario asks the batch driver to run,
/// identified by name (the [`AllocationPolicy::name`] strings).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyChoice {
    /// `"static"` — the open-loop baseline, run for `rounds` rounds.
    Static {
        /// Closed-loop round budget.
        rounds: u32,
    },
    /// `"greedy-rebalance"` with its full parameter surface.
    Greedy {
        /// Closed-loop round budget.
        rounds: u32,
        /// Most nodes moved per round.
        max_moves: u32,
        /// Failure-gap stability tolerance.
        tolerance: f64,
        /// ε-damping hysteresis per executed move round.
        move_cost: f64,
    },
    /// `"proportional-fair"` with its smoothing ε.
    ProportionalFair {
        /// Closed-loop round budget.
        rounds: u32,
        /// Failure-ratio smoothing ε.
        epsilon: f64,
    },
}

impl PolicyChoice {
    /// The policy's wire name (matches [`AllocationPolicy::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyChoice::Static { .. } => "static",
            PolicyChoice::Greedy { .. } => "greedy-rebalance",
            PolicyChoice::ProportionalFair { .. } => "proportional-fair",
        }
    }

    /// The closed-loop round budget.
    pub fn rounds(&self) -> u32 {
        match *self {
            PolicyChoice::Static { rounds }
            | PolicyChoice::Greedy { rounds, .. }
            | PolicyChoice::ProportionalFair { rounds, .. } => rounds,
        }
    }

    /// Instantiates the named policy with its saved parameters.
    pub fn build(&self) -> Box<dyn AllocationPolicy + Send> {
        match *self {
            PolicyChoice::Static { .. } => Box::new(StaticAllocation),
            PolicyChoice::Greedy {
                max_moves,
                tolerance,
                move_cost,
                ..
            } => Box::new(
                GreedyRebalance::new(max_moves as usize)
                    .with_tolerance(tolerance)
                    .with_move_cost(move_cost),
            ),
            PolicyChoice::ProportionalFair { epsilon, .. } => {
                Box::new(ProportionalFair { epsilon })
            }
        }
    }
}

/// A scenario as stored on disk: the full [`Scenario`] surface plus the
/// optional closed-loop [`PolicyChoice`] the batch driver should run it
/// under (`None` = one open-loop grid).
#[derive(Debug, Clone, PartialEq)]
pub struct SavedScenario {
    /// The experiment itself.
    pub scenario: Scenario,
    /// The allocation policy to close the loop with, if any.
    pub policy: Option<PolicyChoice>,
}

impl SavedScenario {
    /// Wraps a scenario with no closed-loop policy.
    pub fn open_loop(scenario: Scenario) -> Self {
        SavedScenario {
            scenario,
            policy: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn num(field: &'static str, x: f64) -> Result<Node, SaveError> {
    if !x.is_finite() {
        return Err(SaveError::NonFinite(field));
    }
    Ok(node(Value::Float(x)))
}

fn level_dbm(level: TxPowerLevel) -> i64 {
    level.output_power().dbm() as i64
}

fn level_from_dbm(node: &Node) -> Result<TxPowerLevel, ParseError> {
    let dbm = as_f64(node)?;
    TxPowerLevel::ALL
        .into_iter()
        .find(|l| l.output_power().dbm() == dbm)
        .ok_or_else(|| {
            ParseError::node(
                node,
                "a CC2420 output level (-25, -15, -10, -7, -5, -3, -1 or 0 dBm)",
            )
        })
}

fn encode_deployment(d: &DeploymentSpec) -> Result<Node, SaveError> {
    Ok(match d {
        DeploymentSpec::UniformLossGrid { min_db, max_db } => obj(vec![
            ("kind", string("uniform_loss_grid")),
            ("min_db", num("deployment.min_db", *min_db)?),
            ("max_db", num("deployment.max_db", *max_db)?),
        ]),
        DeploymentSpec::Disc {
            radius_m,
            exponent,
            shadowing_db,
        } => obj(vec![
            ("kind", string("disc")),
            ("radius_m", num("deployment.radius_m", *radius_m)?),
            ("exponent", num("deployment.exponent", *exponent)?),
            (
                "shadowing_db",
                num("deployment.shadowing_db", *shadowing_db)?,
            ),
        ]),
        DeploymentSpec::Rings {
            radii_m,
            exponent,
            shadowing_db,
        } => {
            let radii = radii_m
                .iter()
                .map(|&r| num("deployment.radii_m", r))
                .collect::<Result<Vec<_>, _>>()?;
            obj(vec![
                ("kind", string("rings")),
                ("radii_m", arr(radii)),
                ("exponent", num("deployment.exponent", *exponent)?),
                (
                    "shadowing_db",
                    num("deployment.shadowing_db", *shadowing_db)?,
                ),
            ])
        }
        DeploymentSpec::Clustered {
            field_radius_m,
            cluster_radius_m,
            exponent,
            shadowing_db,
        } => obj(vec![
            ("kind", string("clustered")),
            (
                "field_radius_m",
                num("deployment.field_radius_m", *field_radius_m)?,
            ),
            (
                "cluster_radius_m",
                num("deployment.cluster_radius_m", *cluster_radius_m)?,
            ),
            ("exponent", num("deployment.exponent", *exponent)?),
            (
                "shadowing_db",
                num("deployment.shadowing_db", *shadowing_db)?,
            ),
        ]),
    })
}

fn encode_ber(b: &BerChoice) -> Result<Node, SaveError> {
    Ok(match b {
        BerChoice::EmpiricalCc2420 => obj(vec![("kind", string("empirical_cc2420"))]),
        BerChoice::HardDecisionDsss { noise_figure_db } => obj(vec![
            ("kind", string("hard_decision_dsss")),
            (
                "noise_figure_db",
                num("ber.noise_figure_db", *noise_figure_db)?,
            ),
        ]),
        BerChoice::StandardOqpsk { noise_figure_db } => obj(vec![
            ("kind", string("standard_oqpsk")),
            (
                "noise_figure_db",
                num("ber.noise_figure_db", *noise_figure_db)?,
            ),
        ]),
    })
}

fn encode_tx_policy(p: &TxPowerPolicy) -> Result<Node, SaveError> {
    Ok(match p {
        TxPowerPolicy::Fixed(level) => obj(vec![
            ("kind", string("fixed")),
            ("level_dbm", node(Value::Float(level_dbm(*level) as f64))),
        ]),
        TxPowerPolicy::ChannelInversion { target_rx } => obj(vec![
            ("kind", string("channel_inversion")),
            (
                "target_rx_dbm",
                num("tx_policy.target_rx_dbm", target_rx.dbm())?,
            ),
        ]),
        TxPowerPolicy::PerNode(levels) => {
            let items = levels
                .iter()
                .map(|&l| node(Value::Float(level_dbm(l) as f64)))
                .collect();
            obj(vec![
                ("kind", string("per_node")),
                ("levels_dbm", arr(items)),
            ])
        }
    })
}

fn encode_policy(p: &PolicyChoice) -> Result<Node, SaveError> {
    Ok(match *p {
        PolicyChoice::Static { rounds } => obj(vec![
            ("name", string("static")),
            ("rounds", uint(rounds as u64)),
        ]),
        PolicyChoice::Greedy {
            rounds,
            max_moves,
            tolerance,
            move_cost,
        } => obj(vec![
            ("name", string("greedy-rebalance")),
            ("rounds", uint(rounds as u64)),
            ("max_moves", uint(max_moves as u64)),
            ("tolerance", num("policy.tolerance", tolerance)?),
            ("move_cost", num("policy.move_cost", move_cost)?),
        ]),
        PolicyChoice::ProportionalFair { rounds, epsilon } => obj(vec![
            ("name", string("proportional-fair")),
            ("rounds", uint(rounds as u64)),
            ("epsilon", num("policy.epsilon", epsilon)?),
        ]),
    })
}

/// Encodes a [`SavedScenario`] as a canonical format-1 [`Node`] tree.
///
/// # Errors
///
/// Returns a [`SaveError`] for state format 1 cannot represent (a
/// non-CC2420 radio model, non-finite numbers).
pub fn encode_scenario(saved: &SavedScenario) -> Result<Node, SaveError> {
    let s = &saved.scenario;
    if s.radio != RadioModel::cc2420() {
        return Err(SaveError::UnsupportedRadio);
    }
    let payloads = match &s.traffic.payloads {
        PayloadSpec::Uniform { payload_bytes } => uint(*payload_bytes as u64),
        PayloadSpec::PerChannel { payload_bytes } => {
            arr(payload_bytes.iter().map(|&b| uint(b as u64)).collect())
        }
    };
    let traffic = obj(vec![
        ("payload_bytes", payloads),
        (
            "gts_slots_per_node",
            uint(s.traffic.gts_slots_per_node as u64),
        ),
        (
            "gts_demand",
            match s.traffic.gts_demand {
                Some(n) => uint(n as u64),
                None => null(),
            },
        ),
        (
            "downlink_rate",
            num("traffic.downlink_rate", s.traffic.downlink_rate)?,
        ),
    ]);
    let csma = obj(vec![
        ("min_be", uint(s.csma.min_be as u64)),
        ("max_be", uint(s.csma.max_be as u64)),
        ("max_backoffs", uint(s.csma.max_backoffs as u64)),
        ("cw", uint(s.csma.cw as u64)),
    ]);
    let f = &s.faults;
    let faults = obj(vec![
        ("death_rate", num("faults.death_rate", f.death_rate)?),
        ("rejoin_delay", uint(f.rejoin_delay as u64)),
        ("max_join_retries", uint(f.max_join_retries as u64)),
        ("outage_rate", num("faults.outage_rate", f.outage_rate)?),
        ("outage_superframes", uint(f.outage_superframes as u64)),
        (
            "drift_amplitude_db",
            num("faults.drift_amplitude_db", f.drift_amplitude_db)?,
        ),
        ("drift_period_rounds", uint(f.drift_period_rounds as u64)),
        ("burst_every_rounds", uint(f.burst_every_rounds as u64)),
        (
            "burst_downlink_rate",
            num("faults.burst_downlink_rate", f.burst_downlink_rate)?,
        ),
    ]);
    let channel_ber = match &s.channel_ber {
        None => null(),
        Some(bers) => arr(bers.iter().map(encode_ber).collect::<Result<_, _>>()?),
    };
    let channel_loss_offsets = match &s.channel_loss_offsets_db {
        None => null(),
        Some(offsets) => arr(offsets
            .iter()
            .map(|&o| num("channel_loss_offsets_db", o))
            .collect::<Result<_, _>>()?),
    };
    let allocation = match s.allocation {
        ChannelAllocation::RoundRobin => "round_robin",
        ChannelAllocation::Contiguous => "contiguous",
        ChannelAllocation::RingStratified => "ring_stratified",
    };
    Ok(obj(vec![
        ("format", uint(FORMAT_VERSION)),
        ("name", string(&s.name)),
        ("channels", uint(s.channels as u64)),
        ("nodes_per_channel", uint(s.nodes_per_channel as u64)),
        ("deployment", encode_deployment(&s.deployment)?),
        ("allocation", string(allocation)),
        ("traffic", traffic),
        ("beacon_order", uint(s.beacon_order.value() as u64)),
        ("csma", csma),
        ("max_transmissions", uint(s.retries.n_max() as u64)),
        ("superframes", uint(s.superframes as u64)),
        ("replications", uint(s.replications as u64)),
        ("seed", uint(s.seed)),
        ("radio", string("cc2420")),
        ("tx_policy", encode_tx_policy(&s.tx_policy)?),
        (
            "coordinator_tx_dbm",
            num("coordinator_tx_dbm", s.coordinator_tx.dbm())?,
        ),
        (
            "wakeup_margin_s",
            num("wakeup_margin_s", s.wakeup_margin.secs())?,
        ),
        ("ber", encode_ber(&s.ber)?),
        ("channel_ber", channel_ber),
        ("channel_loss_offsets_db", channel_loss_offsets),
        ("min_cap_slots", uint(s.min_cap_slots as u64)),
        ("synchronized_arrivals", boolean(s.synchronized_arrivals)),
        ("faults", faults),
        ("shards", uint(s.shards as u64)),
        (
            "policy",
            match &saved.policy {
                None => null(),
                Some(p) => encode_policy(p)?,
            },
        ),
    ]))
}

/// Serializes a [`SavedScenario`] as the canonical format-1 document.
///
/// # Errors
///
/// Returns a [`SaveError`] for state format 1 cannot represent.
pub fn save_scenario(saved: &SavedScenario) -> Result<String, SaveError> {
    Ok(render_document(&encode_scenario(saved)?))
}

/// Stable config fingerprint: FNV-1a 64 over the canonical format-1
/// rendering, printed as 16 lowercase hex digits.
///
/// The canonical rendering already embeds every field that affects a run —
/// including the seed and the policy choice — so two saved scenarios share a
/// fingerprint exactly when a batch would produce bit-identical records for
/// them. The resume journal matches on this value: a changed file gets a new
/// fingerprint and is re-run instead of being skipped.
///
/// Scenarios format 1 cannot represent still get a digest (over the debug
/// rendering, which `save_scenario` never emits), so they never collide with
/// a journaled fingerprint and are always re-run.
pub fn fingerprint_scenario(saved: &SavedScenario) -> String {
    let text = match save_scenario(saved) {
        Ok(text) => text,
        Err(e) => format!("unsaveable:{e}:{saved:?}"),
    };
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// FNV-1a 64 of `bytes`: the scenario fingerprint and the manifest
/// seeds' name hash.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn decode_deployment(node: &Node) -> Result<DeploymentSpec, ParseError> {
    let mut o = ObjReader::new(node, "`deployment`")?;
    let kind_node = o.get("kind")?;
    let spec = match as_str(kind_node)? {
        "uniform_loss_grid" => DeploymentSpec::UniformLossGrid {
            min_db: as_f64(o.get("min_db")?)?,
            max_db: as_f64(o.get("max_db")?)?,
        },
        "disc" => DeploymentSpec::Disc {
            radius_m: as_f64(o.get("radius_m")?)?,
            exponent: as_f64(o.get("exponent")?)?,
            shadowing_db: as_f64(o.get("shadowing_db")?)?,
        },
        "rings" => DeploymentSpec::Rings {
            radii_m: as_arr(o.get("radii_m")?)?
                .iter()
                .map(as_f64)
                .collect::<Result<_, _>>()?,
            exponent: as_f64(o.get("exponent")?)?,
            shadowing_db: as_f64(o.get("shadowing_db")?)?,
        },
        "clustered" => DeploymentSpec::Clustered {
            field_radius_m: as_f64(o.get("field_radius_m")?)?,
            cluster_radius_m: as_f64(o.get("cluster_radius_m")?)?,
            exponent: as_f64(o.get("exponent")?)?,
            shadowing_db: as_f64(o.get("shadowing_db")?)?,
        },
        _ => {
            return Err(ParseError::node(
                kind_node,
                "a deployment kind (`uniform_loss_grid`, `disc`, `rings` or `clustered`)",
            ))
        }
    };
    o.finish()?;
    Ok(spec)
}

fn decode_ber(node: &Node) -> Result<BerChoice, ParseError> {
    let mut o = ObjReader::new(node, "`ber`")?;
    let kind_node = o.get("kind")?;
    let ber = match as_str(kind_node)? {
        "empirical_cc2420" => BerChoice::EmpiricalCc2420,
        "hard_decision_dsss" => BerChoice::HardDecisionDsss {
            noise_figure_db: as_f64(o.get("noise_figure_db")?)?,
        },
        "standard_oqpsk" => BerChoice::StandardOqpsk {
            noise_figure_db: as_f64(o.get("noise_figure_db")?)?,
        },
        _ => {
            return Err(ParseError::node(
                kind_node,
                "a BER kind (`empirical_cc2420`, `hard_decision_dsss` or `standard_oqpsk`)",
            ))
        }
    };
    o.finish()?;
    Ok(ber)
}

fn decode_tx_policy(node: &Node) -> Result<TxPowerPolicy, ParseError> {
    let mut o = ObjReader::new(node, "`tx_policy`")?;
    let kind_node = o.get("kind")?;
    let policy = match as_str(kind_node)? {
        "fixed" => TxPowerPolicy::Fixed(level_from_dbm(o.get("level_dbm")?)?),
        "channel_inversion" => TxPowerPolicy::ChannelInversion {
            target_rx: DBm::new(as_f64(o.get("target_rx_dbm")?)?),
        },
        "per_node" => {
            let levels: Vec<TxPowerLevel> = as_arr(o.get("levels_dbm")?)?
                .iter()
                .map(level_from_dbm)
                .collect::<Result<_, _>>()?;
            TxPowerPolicy::PerNode(levels.into())
        }
        _ => {
            return Err(ParseError::node(
                kind_node,
                "a tx-policy kind (`fixed`, `channel_inversion` or `per_node`)",
            ))
        }
    };
    o.finish()?;
    Ok(policy)
}

fn decode_policy(node: &Node) -> Result<PolicyChoice, ParseError> {
    let mut o = ObjReader::new(node, "`policy`")?;
    let name_node = o.get("name")?;
    let rounds_node = o.get("rounds")?;
    let rounds = as_u32(rounds_node)?;
    if rounds == 0 {
        return Err(ParseError::node(rounds_node, "at least one policy round"));
    }
    let choice = match as_str(name_node)? {
        "static" => PolicyChoice::Static { rounds },
        "greedy-rebalance" => PolicyChoice::Greedy {
            rounds,
            max_moves: as_u32(o.get("max_moves")?)?,
            tolerance: as_f64(o.get("tolerance")?)?,
            move_cost: as_f64(o.get("move_cost")?)?,
        },
        "proportional-fair" => PolicyChoice::ProportionalFair {
            rounds,
            epsilon: as_f64(o.get("epsilon")?)?,
        },
        _ => {
            return Err(ParseError::node(
                name_node,
                "a policy name (`static`, `greedy-rebalance` or `proportional-fair`)",
            ))
        }
    };
    o.finish()?;
    Ok(choice)
}

fn decode_traffic(node: &Node) -> Result<TrafficSpec, ParseError> {
    let mut o = ObjReader::new(node, "`traffic`")?;
    let payloads_node = o.get("payload_bytes")?;
    let payloads = match &payloads_node.value {
        Value::UInt(_) => PayloadSpec::Uniform {
            payload_bytes: as_usize(payloads_node)?,
        },
        Value::Arr(items) => PayloadSpec::PerChannel {
            payload_bytes: items.iter().map(as_usize).collect::<Result<_, _>>()?,
        },
        _ => {
            return Err(ParseError::node(
                payloads_node,
                "a payload byte count or one per channel",
            ))
        }
    };
    let gts_demand_node = o.get("gts_demand")?;
    let gts_demand = if is_null(gts_demand_node) {
        None
    } else {
        Some(as_u32(gts_demand_node)?)
    };
    let traffic = TrafficSpec {
        payloads,
        gts_slots_per_node: as_u8(o.get("gts_slots_per_node")?)?,
        gts_demand,
        downlink_rate: as_f64(o.get("downlink_rate")?)?,
    };
    o.finish()?;
    Ok(traffic)
}

fn decode_faults(node: &Node) -> Result<FaultPlan, ParseError> {
    let mut o = ObjReader::new(node, "`faults`")?;
    let plan = FaultPlan {
        death_rate: as_f64(o.get("death_rate")?)?,
        rejoin_delay: as_u32(o.get("rejoin_delay")?)?,
        max_join_retries: as_u32(o.get("max_join_retries")?)?,
        outage_rate: as_f64(o.get("outage_rate")?)?,
        outage_superframes: as_u32(o.get("outage_superframes")?)?,
        drift_amplitude_db: as_f64(o.get("drift_amplitude_db")?)?,
        drift_period_rounds: as_u32(o.get("drift_period_rounds")?)?,
        burst_every_rounds: as_u32(o.get("burst_every_rounds")?)?,
        burst_downlink_rate: as_f64(o.get("burst_downlink_rate")?)?,
    };
    o.finish()?;
    Ok(plan)
}

/// Decodes a parsed format-1 document into a [`SavedScenario`].
///
/// # Errors
///
/// Returns a [`ParseError`] at the offending node for unknown fields,
/// missing fields, wrong types, out-of-range values or an unsupported
/// `"format"` tag. Structural consistency beyond per-field ranges (loads,
/// list lengths) is [`Scenario::validate`]'s job.
pub fn decode_scenario(root: &Node) -> Result<SavedScenario, ParseError> {
    let mut o = ObjReader::new(root, "the scenario document")?;
    check_format(o.get("format")?)?;

    let name = as_str(o.get("name")?)?.to_string();
    let channels = as_usize(o.get("channels")?)?;
    let nodes_per_channel = as_usize(o.get("nodes_per_channel")?)?;
    let deployment = decode_deployment(o.get("deployment")?)?;

    let allocation_node = o.get("allocation")?;
    let allocation = match as_str(allocation_node)? {
        "round_robin" => ChannelAllocation::RoundRobin,
        "contiguous" => ChannelAllocation::Contiguous,
        "ring_stratified" => ChannelAllocation::RingStratified,
        _ => {
            return Err(ParseError::node(
                allocation_node,
                "an allocation (`round_robin`, `contiguous` or `ring_stratified`)",
            ))
        }
    };

    let traffic = decode_traffic(o.get("traffic")?)?;

    let bo_node = o.get("beacon_order")?;
    let beacon_order = BeaconOrder::new(as_u8(bo_node)?)
        .map_err(|_| ParseError::node(bo_node, "a beacon order in 0..=14"))?;

    let csma_node = o.get("csma")?;
    let mut co = ObjReader::new(csma_node, "`csma`")?;
    let csma = CsmaParams {
        min_be: as_u8(co.get("min_be")?)?,
        max_be: as_u8(co.get("max_be")?)?,
        max_backoffs: as_u8(co.get("max_backoffs")?)?,
        cw: as_u8(co.get("cw")?)?,
    };
    co.finish()?;

    let nmax_node = o.get("max_transmissions")?;
    let n_max = as_u32(nmax_node)?;
    if n_max == 0 {
        return Err(ParseError::node(nmax_node, "at least one transmission"));
    }
    let retries = RetryPolicy::new(n_max);

    let superframes = as_u32(o.get("superframes")?)?;
    let replications = as_u32(o.get("replications")?)?;
    let seed = as_u64(o.get("seed")?)?;

    let radio_node = o.get("radio")?;
    let radio = match as_str(radio_node)? {
        "cc2420" => RadioModel::cc2420(),
        _ => return Err(ParseError::node(radio_node, "the radio name `cc2420`")),
    };

    let tx_policy = decode_tx_policy(o.get("tx_policy")?)?;
    let coordinator_tx = DBm::new(as_f64(o.get("coordinator_tx_dbm")?)?);
    let wakeup_margin = Seconds::from_secs(as_f64(o.get("wakeup_margin_s")?)?);
    let ber = decode_ber(o.get("ber")?)?;

    let channel_ber_node = o.get("channel_ber")?;
    let channel_ber = if is_null(channel_ber_node) {
        None
    } else {
        Some(
            as_arr(channel_ber_node)?
                .iter()
                .map(decode_ber)
                .collect::<Result<Vec<_>, _>>()?,
        )
    };

    let offsets_node = o.get("channel_loss_offsets_db")?;
    let channel_loss_offsets_db = if is_null(offsets_node) {
        None
    } else {
        Some(
            as_arr(offsets_node)?
                .iter()
                .map(as_f64)
                .collect::<Result<Vec<_>, _>>()?,
        )
    };

    let min_cap_slots = as_u8(o.get("min_cap_slots")?)?;
    let synchronized_arrivals = as_bool(o.get("synchronized_arrivals")?)?;
    let faults = decode_faults(o.get("faults")?)?;
    let shards = as_usize(o.get("shards")?)?.max(1);

    let policy_node = o.get("policy")?;
    let policy = if is_null(policy_node) {
        None
    } else {
        Some(decode_policy(policy_node)?)
    };

    o.finish()?;

    Ok(SavedScenario {
        scenario: Scenario {
            name,
            channels,
            nodes_per_channel,
            deployment,
            allocation,
            traffic,
            beacon_order,
            csma,
            retries,
            superframes,
            replications,
            seed,
            radio,
            tx_policy,
            coordinator_tx,
            wakeup_margin,
            ber,
            channel_ber,
            channel_loss_offsets_db,
            min_cap_slots,
            synchronized_arrivals,
            faults,
            shards,
        },
        policy,
    })
}

/// Parses and decodes a saved-scenario document.
///
/// # Errors
///
/// Returns a [`ParseError`] — syntax, duplicate keys, unknown/missing
/// fields, wrong types, unsupported format tag — at the offending source
/// position. Never panics on malformed input.
pub fn load_scenario(text: &str) -> Result<SavedScenario, ParseError> {
    decode_scenario(&parse_document(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TrafficSpec;

    fn sample() -> SavedScenario {
        let mut scenario = Scenario::new(
            "sample",
            4,
            10,
            DeploymentSpec::Rings {
                radii_m: vec![5.0, 12.5, 20.0, 28.0],
                exponent: 3.0,
                shadowing_db: 2.5,
            },
        )
        .with_allocation(ChannelAllocation::Contiguous)
        .with_traffic(
            TrafficSpec::per_channel(vec![40, 80, 120, 123])
                .with_gts(1)
                .with_gts_demand(3)
                .with_downlink(0.25),
        )
        .with_channel_ber(vec![
            BerChoice::EmpiricalCc2420,
            BerChoice::HardDecisionDsss {
                noise_figure_db: 23.0,
            },
            BerChoice::StandardOqpsk {
                noise_figure_db: 24.5,
            },
            BerChoice::EmpiricalCc2420,
        ])
        .with_faults(FaultPlan {
            burst_every_rounds: 4,
            burst_downlink_rate: 0.5,
            ..FaultPlan::inert()
                .with_churn(0.02, 1, 3)
                .with_outages(0.1, 2)
                .with_drift(3.0, 6)
        })
        .with_seed(0xDEAD_BEEF_CAFE_F00D)
        .with_replications(3);
        scenario.channel_loss_offsets_db = Some(vec![0.0, 1.5, -2.0, 0.75]);
        SavedScenario {
            scenario,
            policy: Some(PolicyChoice::Greedy {
                rounds: 6,
                max_moves: 4,
                tolerance: 0.02,
                move_cost: 0.01,
            }),
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let saved = sample();
        let text = save_scenario(&saved).unwrap();
        let loaded = load_scenario(&text).unwrap();
        assert_eq!(loaded, saved);
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let saved = sample();
        let text = save_scenario(&saved).unwrap();
        let again = save_scenario(&load_scenario(&text).unwrap()).unwrap();
        assert_eq!(text, again);
    }

    #[test]
    fn seeds_beyond_f64_precision_survive() {
        let mut saved = SavedScenario::open_loop(Scenario::paper_case_study());
        // 2^63 + 3: not representable as f64.
        saved.scenario.seed = 9_223_372_036_854_775_811;
        let text = save_scenario(&saved).unwrap();
        assert_eq!(
            load_scenario(&text).unwrap().scenario.seed,
            9_223_372_036_854_775_811
        );
    }

    #[test]
    fn per_node_tx_policy_round_trips() {
        let mut saved = SavedScenario::open_loop(Scenario::new(
            "per-node",
            1,
            3,
            DeploymentSpec::UniformLossGrid {
                min_db: 60.0,
                max_db: 80.0,
            },
        ));
        saved.scenario.tx_policy = TxPowerPolicy::PerNode(
            vec![TxPowerLevel::Neg25, TxPowerLevel::Neg5, TxPowerLevel::Zero].into(),
        );
        let text = save_scenario(&saved).unwrap();
        assert_eq!(load_scenario(&text).unwrap(), saved);
    }

    #[test]
    fn unknown_fields_are_rejected_with_position() {
        let mut text = save_scenario(&sample()).unwrap();
        text = text.replacen("\"name\":", "\"namex\": 1,\n  \"name\":", 1);
        let err = load_scenario(&text).unwrap_err();
        assert!(err.expected.contains("no field `namex`"), "{err}");
        assert!(err.line >= 2, "{err}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let text = "{\"format\": 1, \"format\": 1}";
        let err = load_scenario(text).unwrap_err();
        assert!(err.expected.contains("duplicate key `format`"), "{err}");
    }

    #[test]
    fn objects_wider_than_the_cap_are_a_positioned_error() {
        // 40k distinct keys, then the first one again. Checking each key
        // against every earlier one took 11.7 s for this in a debug build
        // on a 2-CPU Xeon container; the cap rejects it at the first key
        // past `MAX_KEYS`.
        let keys: Vec<String> = (0..40_000).map(|i| format!("\"k{i}\": {i}")).collect();
        let text = format!("{{{}, \"k0\": 0}}", keys.join(", "));
        let err = load_scenario(&text).unwrap_err();
        assert!(err.expected.contains("no more than 64 keys"), "{err}");
        let col = text.find(&format!("\"k{MAX_KEYS}\"")).unwrap() + 1;
        assert_eq!((err.line, err.col as usize), (1, col), "{err}");
        // The cap itself still parses.
        let at_cap: Vec<String> = (0..MAX_KEYS).map(|i| format!("\"k{i}\": {i}")).collect();
        assert!(parse_document(&format!("{{{}}}", at_cap.join(", "))).is_ok());
    }

    #[test]
    fn missing_fields_are_rejected() {
        let err = load_scenario("{\"format\": 1}").unwrap_err();
        assert!(err.expected.contains("field `name`"), "{err}");
    }

    #[test]
    fn wrong_types_are_rejected() {
        let mut text = save_scenario(&sample()).unwrap();
        text = text.replacen("\"channels\": 4", "\"channels\": \"four\"", 1);
        let err = load_scenario(&text).unwrap_err();
        assert!(err.expected.contains("integer"), "{err}");
    }

    #[test]
    fn truncated_documents_are_rejected() {
        let text = save_scenario(&sample()).unwrap();
        for cut in [1, text.len() / 4, text.len() / 2, text.len() - 2] {
            let trunc: String = text.chars().take(cut).collect();
            assert!(load_scenario(&trunc).is_err(), "cut at {cut} parsed");
        }
    }

    #[test]
    fn future_formats_are_rejected() {
        let mut text = save_scenario(&sample()).unwrap();
        text = text.replacen("\"format\": 1", "\"format\": 2", 1);
        let err = load_scenario(&text).unwrap_err();
        assert!(err.expected.contains("format 1"), "{err}");
    }

    #[test]
    fn parse_error_positions_point_at_the_token() {
        let err = parse_document("{\n  \"a\": [1, 2,\n}").unwrap_err();
        assert_eq!((err.line, err.col), (3, 1), "{err}");
    }

    #[test]
    fn deep_nesting_is_a_positioned_error_not_a_stack_overflow() {
        let brackets = "[".repeat(1 << 20);
        let objects = "{\"a\":".repeat(200_000);
        for text in [&brackets, &objects] {
            let err = load_scenario(text).unwrap_err();
            assert!(err.expected.contains("nesting deeper than"), "{err}");
            assert_eq!(err.line, 1, "{err}");
        }
        // The cap itself still parses.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_document(&at_cap).is_ok());
    }

    #[test]
    fn compact_render_round_trips() {
        let node = encode_scenario(&sample()).unwrap();
        let compact = render_compact(&node);
        assert!(!compact.contains('\n'));
        let reparsed = parse_document(&compact).unwrap();
        assert_eq!(decode_scenario(&reparsed).unwrap(), sample());
    }

    /// Both layouts, byte for byte, for every scalar kind and escape:
    /// scenario fingerprints hash the rendered text, so any drift here
    /// moves every fingerprint.
    #[test]
    fn render_pins_every_scalar_kind_and_escape() {
        let node = json::obj(vec![
            ("q\"b\\s\n", json::string("\"\\\n\t\r\u{1f}é→")),
            ("empty", json::arr(vec![])),
            (
                "items",
                json::arr(vec![
                    json::null(),
                    json::boolean(true),
                    json::boolean(false),
                    json::uint(0),
                    json::uint(u64::MAX),
                    json::num(-2.5e-12),
                    json::num(1.25e22),
                    json::obj(vec![]),
                    json::obj(vec![("k", json::num(0.1))]),
                ]),
            ),
        ]);
        assert_eq!(
            render_compact(&node),
            r#"{"q\"b\\s\n":"\"\\\n\t\r\u001fé→","empty":[],"items":[null,true,false,0,18446744073709551615,-0.0000000000025,12500000000000000000000,{},{"k":0.1}]}"#
        );
        assert_eq!(
            render_document(&node),
            r#"{
  "q\"b\\s\n": "\"\\\n\t\r\u001fé→",
  "empty": [],
  "items": [
    null,
    true,
    false,
    0,
    18446744073709551615,
    -0.0000000000025,
    12500000000000000000000,
    {},
    {
      "k": 0.1
    }
  ]
}
"#
        );
    }

    #[test]
    fn non_cc2420_radios_are_unsupported() {
        let mut saved = SavedScenario::open_loop(Scenario::paper_case_study());
        saved.scenario.radio = wsn_radio::RadioModel::builder()
            .transition_scale(0.5)
            .build();
        assert_eq!(
            save_scenario(&saved).unwrap_err(),
            SaveError::UnsupportedRadio
        );
    }
}
