//! Minimal JSON value, writer and parser.
//!
//! The build environment has no crates.io access (the workspace `serde` is a
//! no-op shim), so campaign reports carry their own JSON layer.  The writer
//! is fully deterministic — object keys keep insertion order, floats use
//! Rust's shortest round-trip formatting — which is what lets a campaign
//! JSON act as a byte-comparable golden baseline.

use std::fmt::Write as _;

/// The largest integer below which every integer is an exact `f64` (2^53):
/// the bound on counts and seeds that survive the JSON number form.
pub(crate) const MAX_EXACT_INT: u64 = 1 << 53;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are rendered without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order so rendering is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object values.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a count, if it is a number that is one exactly:
    /// non-negative, whole and at most 2^53 ([`MAX_EXACT_INT`]).  An `as`
    /// cast would saturate or round anything else into a different count.
    pub(crate) fn as_exact_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        (v >= 0.0 && v.fract() == 0.0 && v <= MAX_EXACT_INT as f64).then_some(v as u64)
    }

    /// The value as a string, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent, trailing
    /// newline), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value as a single line (no indentation, no trailing
    /// newline) — the form JSONL streams require.  Just as deterministic as
    /// [`Json::render`], and parsed by the same [`Json::parse`].
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.  Arrays and objects nested more than 64
    /// deep are an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no NaN/Inf; a non-finite metric is a bug upstream but
        // must not produce an unparsable report.
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at byte {pos}", pos = *pos))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts.  The parser (and
/// the drop of what it builds) recurses once per level, so a document from
/// outside — a spooled job, a cache line — must not choose the depth; every
/// document this crate writes stays within a handful of levels.
const MAX_DEPTH: usize = 64;

/// Parses the value at `pos`, nested inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        out.push(parse_unicode_escape(bytes, pos)?);
                        continue;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

/// The four hex digits of a `\u` escape at `at` (just past the `u`).
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let digits = bytes.get(at..at + 4)?;
    digits.iter().try_fold(0, |code, &digit| {
        Some(code * 16 + char::from(digit).to_digit(16)?)
    })
}

/// Decodes the `\u` escape whose `u` is at `pos` — with the low half that
/// must follow a high surrogate: a UTF-16 pair is one character — and
/// leaves `pos` just past it.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let escape = *pos - 1;
    let unpaired = || format!("unpaired surrogate escape at byte {escape}");
    let high =
        hex4(bytes, *pos + 1).ok_or_else(|| format!("invalid \\u escape at byte {escape}"))?;
    *pos += 5;
    let mut code = high;
    if (0xD800..=0xDBFF).contains(&high) {
        let low = hex4(bytes, *pos + 2)
            .filter(|low| bytes[*pos..].starts_with(b"\\u") && (0xDC00..=0xDFFF).contains(low))
            .ok_or_else(unpaired)?;
        *pos += 6;
        code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
    }
    char::from_u32(code).ok_or_else(unpaired)
}

/// Parses a number in JSON's form — an optional minus, an integer part
/// without leading zeros, an optional fraction and exponent, each with at
/// least one digit — that is finite as an `f64`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    *pos += usize::from(bytes.get(*pos) == Some(&b'-'));
    let leading_zero = bytes.get(*pos) == Some(&b'0');
    let integer = digits(pos);
    let mut valid = integer == 1 || (integer > 1 && !leading_zero);
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        valid &= digits(pos) > 0;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        *pos += usize::from(matches!(bytes.get(*pos), Some(b'+' | b'-')));
        valid &= digits(pos) > 0;
    }
    // Only ASCII was consumed.
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap_or_default();
    if !valid {
        return Err(format!("invalid number `{text}` at byte {start}"));
    }
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Json::Num(v)),
        _ => Err(format!("number `{text}` out of range at byte {start}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::Str("smoke".into())),
            ("count", Json::Num(3.0)),
            ("time", Json::Num(0.125)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "runs",
                Json::Arr(vec![
                    Json::obj(vec![("id", Json::Str("a".into()))]),
                    Json::obj(vec![("id", Json::Str("b".into()))]),
                ]),
            ),
        ]);
        let text = doc.render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        // Rendering is idempotent (byte-identical).
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::Num(3.0).render(), "3\n");
        assert_eq!(Json::Num(0.5).render(), "0.5\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
    }

    #[test]
    fn strings_escape_control_characters() {
        let s = Json::Str("a\"b\\c\nd\u{1}".into());
        let text = s.render();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"\n");
        assert_eq!(Json::parse(&text).unwrap(), s);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nulL").is_err());
    }

    #[test]
    fn parse_rejects_nesting_past_the_cap_without_overflowing_the_stack() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(Json::parse(&nested(open, close, MAX_DEPTH)).is_ok());
            let err = Json::parse(&nested(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(err.contains("nesting deeper than 64"), "{err}");
            assert!(Json::parse(&nested(open, close, 100_000)).is_err());
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        // What Python's `json.dumps` writes for a character outside the BMP.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".into())
        );
        assert_eq!(
            Json::parse("\"a\\uD834\\uDD1Eb\"").unwrap(),
            Json::Str("a\u{1D11E}b".into())
        );
        assert_eq!(
            Json::parse("\"\\u00e9\\u0041\"").unwrap(),
            Json::Str("\u{e9}A".into())
        );
    }

    #[test]
    fn parse_refuses_what_json_forbids_naming_the_byte() {
        for (text, want) in [
            ("\"\\u+041\"", "invalid \\u escape at byte 1"),
            ("\"\\u-041\"", "invalid \\u escape at byte 1"),
            ("\"\\u12\"", "invalid \\u escape at byte 1"),
            ("\"x\\ud83d\"", "unpaired surrogate escape at byte 2"),
            ("\"\\ud83d\\u0041\"", "unpaired surrogate escape at byte 1"),
            ("\"\\ude00\"", "unpaired surrogate escape at byte 1"),
            ("01", "invalid number `01` at byte 0"),
            ("-01", "invalid number `-01` at byte 0"),
            ("+1", "invalid number `` at byte 0"),
            (".5", "invalid number `.5` at byte 0"),
            ("[1.]", "invalid number `1.` at byte 1"),
            ("1e", "invalid number `1e` at byte 0"),
            ("-", "invalid number `-` at byte 0"),
            ("[0, 1e999]", "number `1e999` out of range at byte 4"),
            ("-1e400", "number `-1e400` out of range at byte 0"),
        ] {
            assert_eq!(Json::parse(text), Err(want.to_string()), "{text}");
        }
        for (text, want) in [("-0", 0.0), ("0.5", 0.5), ("1E+2", 100.0), ("2e-3", 0.002)] {
            assert_eq!(Json::parse(text), Ok(Json::Num(want)), "{text}");
        }
    }

    /// A document built from a tape of random words, nested at most `depth`
    /// levels more: every kind of value, finite numbers of every magnitude
    /// and strings with quotes, control characters and characters outside
    /// the BMP.  An exhausted tape yields `null`.
    fn doc_from(tape: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
        let word = tape.next().unwrap_or(0);
        let kinds = if depth == 0 { 4 } else { 6 };
        let len = (word >> 8) % 4;
        match word % kinds {
            0 => Json::Null,
            1 => Json::Bool(word >> 8 & 1 == 1),
            2 => {
                let bits = tape.next().unwrap_or(0);
                let v = match word >> 8 & 3 {
                    0 => f64::from_bits(bits),
                    1 => bits as i64 as f64,
                    2 => (bits % 100_000) as f64 / 64.0,
                    _ => -((bits % 1_000) as f64),
                };
                Json::Num(if v.is_finite() { v } else { 0.0 })
            }
            3 => Json::Str(string_from(tape, len as usize * 3)),
            4 => Json::Arr((0..len).map(|_| doc_from(tape, depth - 1)).collect()),
            _ => Json::Obj(
                (0..len)
                    .map(|_| (string_from(tape, 2), doc_from(tape, depth - 1)))
                    .collect(),
            ),
        }
    }

    fn string_from(tape: &mut impl Iterator<Item = u64>, len: usize) -> String {
        (0..len)
            .filter_map(|_| {
                let word = tape.next().unwrap_or(0);
                let code = match word % 5 {
                    0 => (word >> 8) % 0x20,
                    1 => u64::from(b"\"\\/ a"[(word >> 8) as usize % 5]),
                    2 => 0x20 + (word >> 8) % 0x60,
                    3 => (word >> 8) % 0x1_0000,
                    _ => 0x1_0000 + (word >> 8) % 0x10_0000,
                };
                char::from_u32(code as u32)
            })
            .collect()
    }

    /// Text that looks like JSON often enough to reach every branch of the
    /// parser, and every other character besides.
    fn text_from(tape: &[u64]) -> String {
        const ALPHABET: &[u8] = b"{}[],:\" \\/u0123456789abcdefABCDEF-+.eEnultrsx\n";
        tape.iter()
            .filter_map(|&word| match word % 8 {
                0 => char::from_u32((word >> 8) as u32 % 0x11_0000),
                _ => Some(char::from(ALPHABET[(word >> 8) as usize % ALPHABET.len()])),
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn parse_never_panics_on_arbitrary_text(
            tape in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..64)
        ) {
            let text = text_from(&tape);
            let _ = Json::parse(&text);
            // Inside a string, where the escapes are.
            let _ = Json::parse(&format!("\"{text}\""));
        }

        #[test]
        fn every_finite_document_round_trips_through_both_renderers(
            tape in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..256),
            depth in 0usize..MAX_DEPTH + 1,
        ) {
            let doc = doc_from(&mut tape.into_iter(), depth);
            proptest::prop_assert_eq!(Json::parse(&doc.render()), Ok(doc.clone()));
            proptest::prop_assert_eq!(Json::parse(&doc.render_compact()), Ok(doc));
        }
    }

    #[test]
    fn accessors() {
        let doc = Json::parse("{\"a\": 1, \"b\": \"x\", \"c\": [1, 2]}").unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            doc.get("c").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(doc.get("d"), None);
    }
}
