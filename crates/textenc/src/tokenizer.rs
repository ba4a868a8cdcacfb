//! Deterministic approximate subword tokenizer.
//!
//! The paper sizes its sliding windows in *LLM tokens* (8000-token
//! windows, 500-token overlap, per the Llama-3 context limit). We
//! cannot ship a real BPE vocabulary, so we approximate with a
//! deterministic rule that tracks real tokenizers closely on the kind
//! of text the incident encoder produces (identifiers, punctuation,
//! short literals):
//!
//! * runs of alphanumerics are split into pieces of at most
//!   [`MAX_PIECE`] characters (subword behaviour on long words);
//! * every punctuation character is its own token;
//! * whitespace is attached to the *following* token, so that the
//!   concatenation of all tokens reproduces the input exactly — the
//!   property the window chunker relies on.

/// Maximum characters of an alphanumeric run per token piece.
pub const MAX_PIECE: usize = 4;

/// Splits `text` into tokens. Lossless:
/// `tokens.concat() == text`.
pub fn tokenize(text: &str) -> Vec<&str> {
    let mut out = Vec::with_capacity(text.len() / 3 + 1);
    out.extend(Tokens::new(text).map(|(start, end)| &text[start..end]));
    out
}

/// Number of tokens in `text` (without materialising pieces).
pub fn token_count(text: &str) -> usize {
    Tokens::new(text).count()
}

/// A text with the token boundaries of one scan over it: token `i` is
/// `text[bounds[i]..bounds[i + 1]]`, and the last bound is
/// `text.len()`. The encoded graph is scanned once per run and every
/// stage that counts or cuts it reads these bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tokenized {
    text: String,
    bounds: Vec<usize>,
}

impl Tokenized {
    /// Scans `text` once.
    pub fn new(text: String) -> Self {
        let bounds = token_bounds(&text);
        Tokenized { text, bounds }
    }

    /// The scanned text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Number of tokens, `token_count(self.text())`.
    pub fn token_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Token start offsets followed by `text.len()`.
    pub(crate) fn bounds(&self) -> &[usize] {
        &self.bounds
    }
}

/// Token start offsets of `text` followed by `text.len()`.
pub(crate) fn token_bounds(text: &str) -> Vec<usize> {
    // Encoder text averages about 2.5 bytes a token, so this rarely
    // has to grow.
    let mut bounds = Vec::with_capacity(text.len() / 2 + 2);
    bounds.extend(Tokens::new(text).map(|(start, _)| start));
    bounds.push(text.len());
    bounds
}

/// The one tokenizer scan: yields each token's byte range in order.
struct Tokens<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Tokens<'a> {
    fn new(text: &'a str) -> Self {
        Tokens { bytes: text.as_bytes(), pos: 0 }
    }
}

impl Iterator for Tokens<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let bytes = self.bytes;
        let start = self.pos;
        if start >= bytes.len() {
            return None;
        }
        let mut i = start;
        // Leading whitespace rides along with the token.
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < bytes.len() {
            if bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' {
                let piece_end = (i + MAX_PIECE).min(bytes.len());
                while i < piece_end && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
            } else {
                // Punctuation or non-ASCII: single scalar value.
                i += utf8_len(bytes[i]);
            }
        }
        // Otherwise trailing whitespace becomes one final token.
        self.pos = i;
        Some((start, i))
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_roundtrip() {
        let text = "Node n0 with labels Person has properties {name: 'Ada'}.";
        assert_eq!(tokenize(text).concat(), text);
    }

    #[test]
    fn long_words_split_into_pieces() {
        let toks = tokenize("IN_TOURNAMENT");
        assert!(toks.len() >= 3, "{toks:?}");
        assert_eq!(toks.concat(), "IN_TOURNAMENT");
    }

    #[test]
    fn punctuation_is_tokenized_separately() {
        let toks = tokenize("{a: 1}");
        assert!(toks.iter().any(|t| t.trim() == "{"));
        assert!(toks.iter().any(|t| t.trim() == ":"));
    }

    #[test]
    fn whitespace_attaches_forward() {
        let toks = tokenize("a  b");
        assert_eq!(toks, vec!["a", "  b"]);
    }

    #[test]
    fn trailing_whitespace_kept() {
        assert_eq!(tokenize("a \n").concat(), "a \n");
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert_eq!(token_count(""), 0);
    }

    #[test]
    fn token_count_scales_roughly_with_chars_over_four() {
        // 100 chars of dense identifier → ~25 tokens.
        let word = "a".repeat(100);
        assert_eq!(token_count(&word), 25);
    }

    #[test]
    fn unicode_is_not_split_mid_scalar() {
        let text = "héllo ✓ done";
        assert_eq!(tokenize(text).concat(), text);
    }
}
