//! Text normalization shared by all similarity kernels.

/// Normalizes a string for comparison: lowercases, maps punctuation to
/// spaces, and collapses runs of whitespace to single spaces.
///
/// ER attribute values arrive with inconsistent casing and punctuation
/// ("Here Comes The Fuzz [Explicit]" vs "Here Comes the Fuzz"); comparing
/// normalized forms makes the similarity kernels measure content rather
/// than formatting.
pub fn normalize(s: &str) -> String {
    let mut out = String::new();
    normalize_into(s, &mut out);
    out
}

/// [`normalize`] into a caller-owned buffer: `out` is overwritten (its
/// previous contents are discarded, its capacity kept), so a sweep over
/// many values normalizes through one allocation.
pub fn normalize_into(s: &str, out: &mut String) {
    out.clear();
    push_normalized(s, out);
}

/// Appends the normalized form of `s` to `out`, leaving what `out`
/// already holds untouched.
pub(crate) fn push_normalized(s: &str, out: &mut String) {
    let start = out.len();
    out.reserve(s.len());
    let mut last_was_space = true;
    for ch in s.chars() {
        let mapped = if ch.is_alphanumeric() {
            Some(ch.to_ascii_lowercase())
        } else if ch.is_whitespace() || ch.is_ascii_punctuation() {
            None
        } else {
            // Keep non-ASCII symbols verbatim; they carry signal in some
            // domains (e.g. trademark glyphs).
            Some(ch)
        };
        match mapped {
            Some(c) => {
                out.push(c);
                last_was_space = false;
            }
            None => {
                if !last_was_space {
                    out.push(' ');
                    last_was_space = true;
                }
            }
        }
    }
    while out.len() > start && out.ends_with(' ') {
        out.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_strips_punctuation() {
        assert_eq!(
            normalize("Here Comes The Fuzz [Explicit]"),
            "here comes the fuzz explicit"
        );
    }

    #[test]
    fn collapses_whitespace() {
        assert_eq!(normalize("  a \t b\n\nc  "), "a b c");
    }

    #[test]
    fn empty_and_punct_only() {
        assert_eq!(normalize(""), "");
        assert_eq!(normalize("!!! ... ---"), "");
    }

    #[test]
    fn keeps_digits() {
        assert_eq!(normalize("iPhone-13 (128GB)"), "iphone 13 128gb");
    }

    #[test]
    fn idempotent() {
        let once = normalize("Mixed CASE, punct.!");
        assert_eq!(normalize(&once), once);
    }
}
