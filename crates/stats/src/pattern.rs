//! Rexpy-style text pattern learning.
//!
//! Fig 1 row 3 discovers a text-domain profile as "a regex over
//! `D.A_j` learned via pattern discovery \[56\]" (the Python `rexpy`
//! package, unavailable here). This module implements the same idea
//! from scratch: tokenize each string into runs of character classes,
//! then generalize run lengths across all examples into per-class
//! `{min, max}` bounds. The learned [`Pattern`] supports matching
//! (for violation counting) and minimal repair (insert/strip
//! characters to meet length bounds — the paper's suggested text
//! transformation).

use std::fmt;
use std::hash::{Hash, Hasher};

/// A character class recognized by the tokenizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CharClass {
    /// ASCII digits `0-9`.
    Digit,
    /// ASCII letters `a-zA-Z`.
    Alpha,
    /// Whitespace.
    Space,
    /// A specific punctuation/symbol character (kept literal, since
    /// separators like `-` or `@` are usually structural).
    Literal(char),
}

impl CharClass {
    fn of(c: char) -> CharClass {
        if c.is_ascii_digit() {
            CharClass::Digit
        } else if c.is_ascii_alphabetic() {
            CharClass::Alpha
        } else if c.is_whitespace() {
            CharClass::Space
        } else {
            CharClass::Literal(c)
        }
    }

    /// A canonical character from this class, used for repairs.
    fn filler(&self) -> char {
        match self {
            CharClass::Digit => '0',
            CharClass::Alpha => 'x',
            CharClass::Space => ' ',
            CharClass::Literal(c) => *c,
        }
    }

    fn matches(&self, c: char) -> bool {
        match self {
            CharClass::Digit => c.is_ascii_digit(),
            CharClass::Alpha => c.is_ascii_alphabetic(),
            CharClass::Space => c.is_whitespace(),
            CharClass::Literal(l) => c == *l,
        }
    }
}

impl fmt::Display for CharClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharClass::Digit => write!(f, r"\d"),
            CharClass::Alpha => write!(f, r"[a-zA-Z]"),
            CharClass::Space => write!(f, r"\s"),
            CharClass::Literal(c) => write!(f, "{}", regex_escape(*c)),
        }
    }
}

fn regex_escape(c: char) -> String {
    if "\\^$.|?*+()[]{}".contains(c) {
        format!("\\{c}")
    } else {
        c.to_string()
    }
}

/// One generalized token: a character class repeated between `min`
/// and `max` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The class of every character in the run.
    pub class: CharClass,
    /// Minimum observed run length.
    pub min: usize,
    /// Maximum observed run length.
    pub max: usize,
}

/// A learned pattern: a sequence of generalized tokens, plus global
/// length bounds. Strings match if they tokenize into the same class
/// sequence with run lengths inside the bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    tokens: Vec<Token>,
    /// Minimum total string length observed.
    pub min_len: usize,
    /// Maximum total string length observed.
    pub max_len: usize,
}

fn tokenize(s: &str) -> Vec<(CharClass, usize)> {
    let mut out: Vec<(CharClass, usize)> = Vec::new();
    for c in s.chars() {
        let cls = CharClass::of(c);
        match out.last_mut() {
            Some((last, n)) if *last == cls => *n += 1,
            _ => out.push((cls, 1)),
        }
    }
    out
}

impl Pattern {
    /// Learn a pattern from examples.
    ///
    /// Returns `None` when the examples are empty or do not share a
    /// common class-sequence structure — in that case only the global
    /// length bounds are meaningful, and callers fall back to a
    /// length-only pattern via [`Pattern::length_only`].
    pub fn learn<S: AsRef<str>>(examples: &[S]) -> Option<Pattern> {
        let first = examples.first()?;
        let mut tokens: Vec<Token> = tokenize(first.as_ref())
            .into_iter()
            .map(|(class, n)| Token {
                class,
                min: n,
                max: n,
            })
            .collect();
        let mut min_len = first.as_ref().chars().count();
        let mut max_len = min_len;
        for ex in &examples[1..] {
            let s = ex.as_ref();
            let len = s.chars().count();
            min_len = min_len.min(len);
            max_len = max_len.max(len);
            let toks = tokenize(s);
            if toks.len() != tokens.len()
                || toks.iter().zip(&tokens).any(|((c, _), t)| *c != t.class)
            {
                return None;
            }
            for ((_, n), t) in toks.iter().zip(tokens.iter_mut()) {
                t.min = t.min.min(*n);
                t.max = t.max.max(*n);
            }
        }
        Some(Pattern {
            tokens,
            min_len,
            max_len,
        })
    }

    /// A structure-free pattern that only constrains total length.
    pub fn length_only<S: AsRef<str>>(examples: &[S]) -> Option<Pattern> {
        let lens: Vec<usize> = examples
            .iter()
            .map(|s| s.as_ref().chars().count())
            .collect();
        let min_len = *lens.iter().min()?;
        let max_len = *lens.iter().max()?;
        Some(Pattern {
            tokens: Vec::new(),
            min_len,
            max_len,
        })
    }

    /// Feed the pattern's full content into `h`, field by field: the
    /// token count; per token its class tag (0 digit, 1 letter,
    /// 2 space, 3 literal followed by the character) and run-length
    /// bounds; then the length bounds. The stream is part of persisted
    /// intent keys, so the tags are fixed here rather than derived;
    /// they reproduce the stream a derived `Hash` fed.
    pub fn hash_content<H: Hasher>(&self, h: &mut H) {
        self.tokens.len().hash(h);
        for t in &self.tokens {
            let tag: isize = match t.class {
                CharClass::Digit => 0,
                CharClass::Alpha => 1,
                CharClass::Space => 2,
                CharClass::Literal(_) => 3,
            };
            tag.hash(h);
            if let CharClass::Literal(c) = t.class {
                c.hash(h);
            }
            t.min.hash(h);
            t.max.hash(h);
        }
        self.min_len.hash(h);
        self.max_len.hash(h);
    }

    /// Whether this pattern constrains structure (vs length only).
    pub fn is_structural(&self) -> bool {
        !self.tokens.is_empty()
    }

    /// Whether `s` conforms to the pattern.
    ///
    /// Structural patterns check the token structure (the per-run
    /// bounds already bound the total length); length-only patterns
    /// check the global length bounds.
    pub fn matches(&self, s: &str) -> bool {
        if self.tokens.is_empty() {
            let len = s.chars().count();
            return len >= self.min_len && len <= self.max_len;
        }
        let toks = tokenize(s);
        toks.len() == self.tokens.len()
            && toks
                .iter()
                .zip(&self.tokens)
                .all(|((c, n), t)| *c == t.class && *n >= t.min && *n <= t.max)
    }

    /// Minimally repair `s` to match the pattern, per Fig 1 row 3's
    /// transformation: "insert (remove) characters to increase
    /// (reduce) text length". Structural patterns rebuild each run to
    /// the closest in-bounds length, preserving original characters
    /// where the classes agree; length-only patterns pad or truncate.
    pub fn repair(&self, s: &str) -> String {
        if self.matches(s) {
            return s.to_string();
        }
        if self.tokens.is_empty() {
            return self.repair_length(s);
        }
        let toks = tokenize(s);
        if toks.len() == self.tokens.len()
            && toks
                .iter()
                .zip(&self.tokens)
                .all(|((c, _), t)| *c == t.class)
        {
            // Same structure: clamp run lengths.
            let mut out = String::new();
            let mut chars = s.chars();
            for ((_, n), t) in toks.iter().zip(&self.tokens) {
                let run: String = chars.by_ref().take(*n).collect();
                let target = (*n).clamp(t.min, t.max);
                if target <= *n {
                    out.extend(run.chars().take(target));
                } else {
                    out.push_str(&run);
                    out.extend(std::iter::repeat_n(t.class.filler(), target - n));
                }
            }
            out
        } else {
            // Different structure: synthesize a canonical instance,
            // reusing a prefix of compatible characters.
            let mut source = s.chars().peekable();
            let mut out = String::new();
            for t in &self.tokens {
                for _ in 0..t.min.max(1).min(t.max.max(1)) {
                    match source.peek() {
                        Some(&c) if t.class.matches(c) => {
                            out.push(c);
                            source.next();
                        }
                        _ => out.push(t.class.filler()),
                    }
                }
            }
            out
        }
    }

    fn repair_length(&self, s: &str) -> String {
        let len = s.chars().count();
        if len > self.max_len {
            s.chars().take(self.max_len).collect()
        } else {
            let mut out = s.to_string();
            out.extend(std::iter::repeat_n(' ', self.min_len - len));
            out
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.tokens.is_empty() {
            return write!(f, r".{{{},{}}}", self.min_len, self.max_len);
        }
        for t in &self.tokens {
            if t.min == t.max {
                if t.min == 1 {
                    write!(f, "{}", t.class)?;
                } else {
                    write!(f, "{}{{{}}}", t.class, t.min)?;
                }
            } else {
                write!(f, "{}{{{},{}}}", t.class, t.min, t.max)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_phone_number_pattern() {
        let examples = ["2088556597", "2085374523", "2766465009"];
        let p = Pattern::learn(&examples).unwrap();
        assert!(p.is_structural());
        assert_eq!(p.to_string(), r"\d{10}");
        assert!(p.matches("4047747803"));
        assert!(!p.matches("404774780"), "too short");
        assert!(!p.matches("404-774-7803"), "wrong structure");
    }

    #[test]
    fn learns_structured_ids() {
        let examples = ["AB-123", "XY-4567", "QQ-99"];
        let p = Pattern::learn(&examples).unwrap();
        assert_eq!(p.to_string(), r"[a-zA-Z]{2}-\d{2,4}");
        assert!(p.matches("ZZ-100"));
        assert!(!p.matches("Z-100"));
        assert!(!p.matches("ZZ-12345"));
    }

    #[test]
    fn heterogeneous_examples_fall_back_to_length() {
        let examples = ["abc", "12345", "a-1"];
        assert!(Pattern::learn(&examples).is_none());
        let p = Pattern::length_only(&examples).unwrap();
        assert!(!p.is_structural());
        assert_eq!((p.min_len, p.max_len), (3, 5));
        assert!(p.matches("wxyz"));
        assert!(!p.matches("toolongstring"));
    }

    #[test]
    fn repair_clamps_run_lengths() {
        // Digit run bounds {2, 4} (learned from 99 / 123 / 4567).
        let p = Pattern::learn(&["AB-123", "XY-4567", "QQ-99"]).unwrap();
        // Too many digits: truncated.
        assert_eq!(p.repair("ZZ-999999"), "ZZ-9999");
        // Too few digits: padded with the class filler.
        assert_eq!(p.repair("ZZ-1"), "ZZ-10");
        // Already matching: unchanged.
        assert_eq!(p.repair("AA-22"), "AA-22");
        // Repairs always match afterwards.
        for s in ["ZZ-999999", "ZZ-1", "5", "hello world"] {
            assert!(p.matches(&p.repair(s)), "repair of {s:?} must match");
        }
    }

    #[test]
    fn repair_length_only() {
        let p = Pattern::length_only(&["abcd", "abcdef"]).unwrap();
        assert_eq!(p.repair("ab"), "ab  ");
        assert_eq!(p.repair("abcdefgh"), "abcdef");
        assert_eq!(p.repair("abcde"), "abcde");
    }

    #[test]
    fn empty_examples_learn_nothing() {
        let none: &[&str] = &[];
        assert!(Pattern::learn(none).is_none());
        assert!(Pattern::length_only(none).is_none());
    }

    #[test]
    fn display_escapes_regex_metachars() {
        let p = Pattern::learn(&["a.b", "c.d"]).unwrap();
        assert_eq!(p.to_string(), r"[a-zA-Z]\.[a-zA-Z]");
    }
}
