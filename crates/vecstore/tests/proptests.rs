//! Property-based tests for the embedder and the vector store,
//! including a differential test of the one-pass embedder against the
//! straightforward definition in [`reference`].

use grm_vecstore::{embed, VectorStore, DIM};
use proptest::prelude::*;

proptest! {
    /// Embeddings of non-trivial text are unit vectors.
    #[test]
    fn embeddings_are_normalised(text in "[a-zA-Z0-9 ]{1,100}") {
        prop_assume!(text.chars().any(|c| c.is_ascii_alphanumeric()));
        let e = embed(&text);
        prop_assert!((e.norm() - 1.0).abs() < 1e-4, "norm {}", e.norm());
    }

    /// Cosine similarity is symmetric and bounded.
    #[test]
    fn cosine_symmetric_and_bounded(a in "[a-z ]{1,60}", b in "[a-z ]{1,60}") {
        let (ea, eb) = (embed(&a), embed(&b));
        let ab = ea.cosine(&eb);
        let ba = eb.cosine(&ea);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&ab), "cosine {ab}");
    }

    /// Identical text embeds identically (determinism).
    #[test]
    fn embedding_is_deterministic(text in ".{0,120}") {
        prop_assert_eq!(embed(&text), embed(&text));
    }

    /// top_k scores are monotonically non-increasing and k-bounded.
    #[test]
    fn top_k_is_sorted_and_bounded(
        chunks in prop::collection::vec("[a-z ]{1,40}", 1..20),
        query in "[a-z ]{1,30}",
        k in 1usize..10,
    ) {
        let mut store = VectorStore::new();
        for c in &chunks {
            store.insert(c.clone());
        }
        let hits = store.top_k(&query, k);
        prop_assert!(hits.len() <= k.min(chunks.len()));
        for pair in hits.windows(2) {
            prop_assert!(pair[0].score >= pair[1].score);
        }
    }

    /// The best hit for a stored chunk's own text is that chunk (or a
    /// duplicate of it).
    #[test]
    fn self_retrieval_finds_the_chunk(
        chunks in prop::collection::hash_set("[a-z]{4,20}", 2..10),
        pick in any::<prop::sample::Index>(),
    ) {
        let chunks: Vec<String> = chunks.into_iter().collect();
        let mut store = VectorStore::new();
        for c in &chunks {
            store.insert(c.clone());
        }
        let target = &chunks[pick.index(chunks.len())];
        let hits = store.top_k(target, 1);
        prop_assert_eq!(&hits[0].entry.text, target);
    }
}

/// The embedder as first written: lowercase the whole text, hash every
/// word of the split, then every byte window of three, accumulating
/// in `f32`.
mod reference {
    use grm_vecstore::DIM;

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    pub fn embed(text: &str) -> Vec<f32> {
        let mut v = vec![0f32; DIM];
        let lower = text.to_lowercase();
        for word in lower.split(|c: char| !c.is_ascii_alphanumeric()) {
            if word.is_empty() {
                continue;
            }
            let h = fnv1a(word.as_bytes());
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[(h % DIM as u64) as usize] += 2.0 * sign;
        }
        let bytes = lower.as_bytes();
        if bytes.len() >= 3 {
            for win in bytes.windows(3) {
                let h = fnv1a(win) ^ 0x9e37_79b9_7f4a_7c15;
                let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
                v[(h % DIM as u64) as usize] += sign;
            }
        }
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }
}

/// Text the embedder meets — encoder lines, mixed case, punctuation —
/// plus characters whose lowercase has another byte length (`İ` grows,
/// `ẞ` shrinks) or depends on context (`Σ`).
fn embed_text() -> impl Strategy<Value = String> {
    prop_oneof![
        ".{0,200}",
        "[a-zA-Z0-9 _.,:{}'\n]{0,200}",
        "[a-zA-Z İẞΣσé✓_:-]{0,60}",
        Just("Node n0 with labels Person has properties {name: 'ADA', ID: 7}.".to_owned()),
        Just("ΣΑΣ İSTANBUL STRAẞE".to_owned()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass embedder gives the reference's vector, bit for bit.
    #[test]
    fn embed_matches_reference(text in embed_text()) {
        let got = embed(&text).0;
        let expected = reference::embed(&text);
        prop_assert_eq!(got.len(), DIM);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&expected));
    }
}
