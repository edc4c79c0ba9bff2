//! Fuzzy prompt parsing.
//!
//! The simulator receives the *rendered prompt text* — exactly what a real
//! API receives — and must recover the task structure from it, the way an
//! LLM implicitly does. The parser is deliberately tolerant: extra prose,
//! blank lines, case differences and unknown sections are ignored rather
//! than rejected.
//!
//! Recognized line shapes (the framework's prompt builder emits these, see
//! `batcher-core::prompt`):
//!
//! ```text
//! D3: title: a, id: 1 [SEP] title: b, id: 2 => yes
//! Q7: title: x, id: 9 [SEP] title: y, id: 9
//! ```
//!
//! Everything else is accumulated into the task description.

/// One attribute of a parsed entity: `(name, value)`, both slices of the
/// prompt.
pub type ParsedAttr<'p> = (&'p str, &'p str);

/// A parsed entity pair: the attributes of both sides plus the raw text,
/// all borrowed from the prompt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPair<'p> {
    /// Attributes of the left entity, in textual order.
    pub a: Vec<ParsedAttr<'p>>,
    /// Attributes of the right entity, in textual order.
    pub b: Vec<ParsedAttr<'p>>,
    /// The raw pair text as it appeared in the prompt.
    pub raw: &'p str,
}

/// A demonstration: a pair with its stated answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedDemo<'p> {
    /// The demonstrated pair.
    pub pair: ParsedPair<'p>,
    /// The demonstrated answer (`true` = matching).
    pub label: bool,
}

/// The structure recovered from a prompt.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedPrompt<'p> {
    /// Free text outside demonstration/question lines.
    pub task_description: String,
    /// In-context demonstrations, in prompt order.
    pub demos: Vec<ParsedDemo<'p>>,
    /// Questions to answer, in prompt order.
    pub questions: Vec<ParsedPair<'p>>,
}

/// A prompt's lines sorted into prose, demonstrations and questions, each
/// pair still its raw text: [`parse_prompt`] without the attribute parse,
/// for a reader that may already know a pair's reading.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct ScannedPrompt<'p> {
    /// Free text outside demonstration/question lines.
    pub(crate) task_description: String,
    /// Each demonstration's raw pair text and answer, in prompt order.
    pub(crate) demos: Vec<(&'p str, bool)>,
    /// Each question's raw pair text, in prompt order.
    pub(crate) questions: Vec<&'p str>,
}

/// Sorts a prompt's lines. Never fails: unrecognizable content lands in
/// `task_description`, mirroring how an LLM would simply read past it.
pub(crate) fn scan_prompt(prompt: &str) -> ScannedPrompt<'_> {
    let mut out = ScannedPrompt::default();
    for line in prompt.lines() {
        let trimmed = line.trim();
        if let Some(rest) = strip_tag(trimmed, 'D') {
            if let Some((pair_text, label_text)) = rest.rsplit_once("=>") {
                if let Some(label) = parse_label(label_text) {
                    out.demos.push((pair_text.trim(), label));
                    continue;
                }
            }
            // A D-line without a readable answer is still a pair the model
            // can look at, but carries no supervision; treat as prose.
            out.push_description(trimmed);
        } else if let Some(rest) = strip_tag(trimmed, 'Q') {
            out.questions.push(rest.trim());
        } else if !trimmed.is_empty() {
            out.push_description(trimmed);
        }
    }
    out
}

/// Parses a full prompt into its structure: `scan_prompt`, then every
/// pair's attributes. Never fails.
pub fn parse_prompt(prompt: &str) -> ParsedPrompt<'_> {
    let scanned = scan_prompt(prompt);
    ParsedPrompt {
        task_description: scanned.task_description,
        demos: scanned
            .demos
            .iter()
            .map(|&(raw, label)| ParsedDemo { pair: parse_pair_text(raw), label })
            .collect(),
        questions: scanned
            .questions
            .iter()
            .map(|raw| parse_pair_text(raw))
            .collect(),
    }
}

impl ScannedPrompt<'_> {
    fn push_description(&mut self, line: &str) {
        if !self.task_description.is_empty() {
            self.task_description.push('\n');
        }
        self.task_description.push_str(line);
    }
}

/// Strips a leading `D<number>:` / `Q<number>:` tag (case-insensitive)
/// and returns the remainder.
fn strip_tag(line: &str, tag: char) -> Option<&str> {
    let mut chars = line.char_indices();
    let (_, first) = chars.next()?;
    if !first.eq_ignore_ascii_case(&tag) {
        return None;
    }
    let mut saw_digit = false;
    for (i, c) in chars {
        if c.is_ascii_digit() {
            saw_digit = true;
        } else if c == ':' && saw_digit {
            return Some(&line[i + 1..]);
        } else {
            return None;
        }
    }
    None
}

/// Reads a yes/no answer out of free text (`"yes"`, `"No."`, `"match"`...).
fn parse_label(text: &str) -> Option<bool> {
    leading_verdict(text, &["yes", "match"], &["no", "different"])
}

/// `Some(true)` when `text`, leading whitespace skipped, starts with one
/// of the lowercase ASCII `yes` words, `Some(false)` for a `no` word —
/// ASCII case ignored, `yes` words tried first, nothing copied.
pub(crate) fn leading_verdict(text: &str, yes: &[&str], no: &[&str]) -> Option<bool> {
    let t = text.trim_start();
    let starts = |w: &&str| t.get(..w.len()).is_some_and(|h| h.eq_ignore_ascii_case(w));
    yes.iter()
        .any(starts)
        .then_some(true)
        .or_else(|| no.iter().any(starts).then_some(false))
}

/// Splits a serialized pair on `[SEP]` and parses each side's attributes.
pub fn parse_pair_text(text: &str) -> ParsedPair<'_> {
    let (left, right) = match text.split_once("[SEP]") {
        Some((l, r)) => (l, r),
        // Degenerate input: treat everything as the left entity.
        None => (text, ""),
    };
    ParsedPair { a: parse_attrs(left.trim()), b: parse_attrs(right.trim()), raw: text }
}

/// Parses `name: value, name2: value2, ...`, tolerating commas and colons
/// inside values.
///
/// An attribute start is recognized as a single word followed by `": "`
/// at the beginning of the text or after `", "`. Anything between two
/// attribute starts belongs to the earlier attribute's value — the same
/// disambiguation a human reader applies.
fn parse_attrs(text: &str) -> Vec<ParsedAttr<'_>> {
    let mut attrs: Vec<ParsedAttr<'_>> = Vec::new();
    if text.is_empty() {
        return attrs;
    }
    // Candidate attribute starts: byte offsets where a name begins. All
    // boundary checks work on raw bytes so multibyte characters inside
    // values can never cause a slicing panic.
    let bytes = text.as_bytes();
    // (name_start, name_end, value_start) byte offsets per attribute.
    let mut starts: Vec<(usize, usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let at_boundary = i == 0 || (i >= 2 && bytes[i - 2] == b',' && bytes[i - 1] == b' ');
        if at_boundary && text.is_char_boundary(i) {
            if let Some((name_end, value_start)) = read_name(text, i) {
                starts.push((i, name_end, value_start));
                i = name_end;
                continue;
            }
        }
        i += 1;
    }
    if starts.is_empty() {
        // No recognizable structure: expose the whole text as one value.
        return vec![("", text)];
    }
    for (k, &(name_start, name_end, value_start)) in starts.iter().enumerate() {
        let value_end = if k + 1 < starts.len() {
            // Value runs up to the ", " preceding the next attribute name.
            starts[k + 1].0.saturating_sub(2)
        } else {
            text.len()
        };
        let value = text[value_start..value_end.max(value_start)].trim();
        attrs.push((text[name_start..name_end].trim(), value));
    }
    attrs
}

/// If a word followed by `": "` begins at `start`, returns
/// `(end_of_name, start_of_value)`.
fn read_name(text: &str, start: usize) -> Option<(usize, usize)> {
    let rest = &text[start..];
    let mut name_len = 0usize;
    for c in rest.chars() {
        if c.is_alphanumeric() || c == '_' || c == '-' {
            name_len += c.len_utf8();
        } else {
            break;
        }
    }
    if name_len == 0 {
        return None;
    }
    if rest[name_len..].starts_with(": ") {
        Some((start + name_len, start + name_len + 2))
    } else if rest[name_len..].starts_with(':') && rest[name_len + 1..].is_empty() {
        // Trailing "name:" with empty value at end of text.
        Some((start + name_len, start + name_len + 1))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_attrs() {
        let p = parse_pair_text("title: iphone-13, id: 0256 [SEP] title: iphone-14, id: ");
        assert_eq!(p.a, vec![("title", "iphone-13"), ("id", "0256")]);
        assert_eq!(p.b, vec![("title", "iphone-14"), ("id", "")]);
    }

    #[test]
    fn commas_inside_values_survive() {
        let p = parse_pair_text(
            "title: Rashi, genre: Dance,Music,Hip-Hop [SEP] title: Rashi, genre: Music",
        );
        assert_eq!(p.a[1], ("genre", "Dance,Music,Hip-Hop"));
        assert_eq!(p.b[1], ("genre", "Music"));
    }

    #[test]
    fn colons_inside_values_survive() {
        // "time: 3:45" — the 45 is not an attribute because "3" is followed
        // by ":4", not ": ".
        let p = parse_pair_text("title: intro, time: 3:45 [SEP] title: intro, time: 3:45");
        assert_eq!(p.a[1], ("time", "3:45"));
    }

    #[test]
    fn missing_sep_is_tolerated() {
        let p = parse_pair_text("title: lonely record");
        assert_eq!(p.a.len(), 1);
        assert!(p.b.is_empty());
    }

    #[test]
    fn full_prompt_roundtrip() {
        let prompt = "\
This is an entity resolution task.

Demonstrations:
D1: title: a [SEP] title: a => yes
D2: title: a [SEP] title: z => no, they differ

Questions:
Q1: title: iphone [SEP] title: iphone
Q2: title: mac [SEP] title: windows

Answer each question with yes or no.";
        let parsed = parse_prompt(prompt);
        assert_eq!(parsed.demos.len(), 2);
        assert!(parsed.demos[0].label);
        assert!(!parsed.demos[1].label);
        assert_eq!(parsed.questions.len(), 2);
        assert!(parsed.task_description.contains("entity resolution"));
        assert!(parsed.task_description.contains("Answer each question"));
    }

    #[test]
    fn unlabeled_demo_becomes_prose() {
        let parsed = parse_prompt("D1: title: a [SEP] title: b => maybe?");
        assert!(parsed.demos.is_empty());
        assert!(parsed.task_description.contains("maybe"));
    }

    #[test]
    fn tag_variants() {
        assert!(strip_tag("Q12: x", 'Q').is_some());
        assert!(strip_tag("q3: x", 'Q').is_some());
        assert!(strip_tag("Q: x", 'Q').is_none()); // no digits
        assert!(strip_tag("Quant: x", 'Q').is_none());
        assert!(strip_tag("", 'Q').is_none());
    }

    #[test]
    fn label_variants() {
        assert_eq!(parse_label(" Yes, same entity"), Some(true));
        assert_eq!(parse_label("NO"), Some(false));
        assert_eq!(parse_label("match"), Some(true));
        assert_eq!(parse_label("different versions"), Some(false));
        assert_eq!(parse_label("uncertain"), None);
    }

    #[test]
    fn empty_prompt() {
        let parsed = parse_prompt("");
        assert!(parsed.demos.is_empty());
        assert!(parsed.questions.is_empty());
        assert!(parsed.task_description.is_empty());
    }

    #[test]
    fn unstructured_side_becomes_single_value() {
        let p = parse_pair_text("just some words [SEP] more words");
        assert_eq!(p.a, vec![("", "just some words")]);
        assert_eq!(p.b, vec![("", "more words")]);
    }
}
