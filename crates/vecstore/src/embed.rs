//! Deterministic text embedder.
//!
//! Stands in for the paper's `GPT4AllEmbeddings` (§3.1.2). We use
//! feature hashing over character trigrams and word unigrams into a
//! fixed-dimension vector, L2-normalised. This preserves the two
//! properties RAG retrieval quality depends on — lexically similar
//! chunks are close, unrelated chunks are far — while staying fully
//! deterministic (the whole study is seeded).

/// Embedding dimensionality.
pub const DIM: usize = 256;

/// A dense embedding vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding(pub Vec<f32>);

impl Embedding {
    /// Cosine similarity with another embedding. Both inputs are
    /// L2-normalised at construction, so this is a dot product.
    pub fn cosine(&self, other: &Embedding) -> f32 {
        self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum()
    }

    /// Euclidean norm (≈ 1 for non-empty inputs after normalising).
    pub fn norm(&self) -> f32 {
        self.0.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// FNV-1a 64-bit offset basis and prime — stable across platforms
/// and runs.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Trigram hashes are FNV-1a xor this, so a trigram and a three-letter
/// word land in different buckets.
const TRIGRAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// One FNV-1a step.
fn fnv1a_step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// Adds `weight` to the bucket of `hash`, signed by one hash bit:
/// signed hashing halves collision bias.
fn add_hashed(counts: &mut [i32; DIM], hash: u64, weight: i32) {
    let sign = if (hash >> 32) & 1 == 0 { 1 } else { -1 };
    counts[(hash % DIM as u64) as usize] += sign * weight;
}

/// Embeds `text` into a [`DIM`]-dimensional normalised vector.
///
/// One pass over the lowercased bytes hashes each word unigram
/// (maximal ASCII-alphanumeric run, weight 2: they carry topical
/// signal) and each byte trigram (weight 1: sub-token similarity).
/// ASCII text is lowercased byte by byte as it is read; other text is
/// lowercased with `to_lowercase` first, which can change its byte
/// length. Every bucket sums whole numbers, so the order of the
/// increments cannot change the vector.
pub fn embed(text: &str) -> Embedding {
    let lowered;
    let bytes = if text.is_ascii() {
        text.as_bytes()
    } else {
        lowered = text.to_lowercase();
        lowered.as_bytes()
    };
    let mut counts = [0i32; DIM];
    let mut word = FNV_OFFSET;
    let mut in_word = false;
    let (mut prev2, mut prev1) = (0u8, 0u8);
    for (i, &raw) in bytes.iter().enumerate() {
        let b = raw.to_ascii_lowercase();
        if b.is_ascii_alphanumeric() {
            word = fnv1a_step(word, b);
            in_word = true;
        } else if in_word {
            add_hashed(&mut counts, word, 2);
            word = FNV_OFFSET;
            in_word = false;
        }
        if i >= 2 {
            let trigram = [prev2, prev1, b].into_iter().fold(FNV_OFFSET, fnv1a_step);
            add_hashed(&mut counts, trigram ^ TRIGRAM_SALT, 1);
        }
        (prev2, prev1) = (prev1, b);
    }
    if in_word {
        add_hashed(&mut counts, word, 2);
    }
    let mut v: Vec<f32> = counts.iter().map(|&c| c as f32).collect();
    // L2 normalise.
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    Embedding(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(embed("hello graph"), embed("hello graph"));
    }

    #[test]
    fn normalised() {
        let e = embed("Node n0 with labels Person");
        assert!((e.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn self_similarity_is_one() {
        let e = embed("consistency rules for property graphs");
        assert!((e.cosine(&e) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn similar_texts_are_closer_than_dissimilar() {
        let a = embed("Node n0 with labels Person has properties {name: 'Ada'}");
        let b = embed("Node n1 with labels Person has properties {name: 'Bea'}");
        let c = embed("zebra quantum xylophone !!!");
        assert!(a.cosine(&b) > a.cosine(&c));
    }

    #[test]
    fn empty_text_embeds_to_zero_vector() {
        let e = embed("");
        assert_eq!(e.norm(), 0.0);
    }

    #[test]
    fn case_insensitive() {
        assert!((embed("PERSON").cosine(&embed("person")) - 1.0).abs() < 1e-5);
    }
}
