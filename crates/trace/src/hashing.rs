//! Privacy-preserving name hashing.
//!
//! The paper's privacy-preserving design principle (§3) requires that all
//! sensitive attributes — component, operation and API endpoint names — be
//! hashed before DeepRest ingests them, so a DeepRest deployment operated as
//! a service never sees application semantics. §4.1 notes the same: "in
//! practice, we hash the component and operation names to avoid privacy
//! leakage."
//!
//! This module implements salted FNV-1a hashing of names and a whole-trace
//! anonymizer. DeepRest's learning pipeline is insensitive to the rewrite:
//! feature extraction and trace synthesis only rely on name *equality*, which
//! the (deterministic, per-salt) hash preserves.

use crate::{Interner, SpanNode, Sym, Trace};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Salted 64-bit FNV-1a digest of `name`.
pub(crate) fn fnv1a64(name: &str, salt: u64) -> u64 {
    let mut hash = FNV_OFFSET ^ salt;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The opaque display form of a hashed name, e.g. `h3f9a...`.
pub fn opaque_name(name: &str, salt: u64) -> String {
    format!("h{:016x}", fnv1a64(name, salt))
}

/// Rewrites every component, operation and API name in `trace` to its opaque
/// hashed form, interning the hashed names into `hashed_interner`.
///
/// `source_interner` resolves the original symbols. Using a fresh
/// `hashed_interner` yields traces that carry no application semantics;
/// whoever holds the salt and the original names can rebuild the mapping for
/// display purposes (the experiment binaries do exactly that).
pub fn anonymize_trace(
    trace: &Trace,
    source_interner: &Interner,
    hashed_interner: &mut Interner,
    salt: u64,
) -> Trace {
    let api = rewrite(trace.api, source_interner, hashed_interner, salt);
    let root = anonymize_span(&trace.root, source_interner, hashed_interner, salt);
    Trace::new(api, root)
}

fn anonymize_span(
    span: &SpanNode,
    source: &Interner,
    hashed: &mut Interner,
    salt: u64,
) -> SpanNode {
    SpanNode {
        component: rewrite(span.component, source, hashed, salt),
        operation: rewrite(span.operation, source, hashed, salt),
        children: span
            .children
            .iter()
            .map(|c| anonymize_span(c, source, hashed, salt))
            .collect(),
    }
}

fn rewrite(sym: Sym, source: &Interner, hashed: &mut Interner, salt: u64) -> Sym {
    hashed.intern(&opaque_name(source.resolve(sym), salt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_per_salt() {
        assert_eq!(
            fnv1a64("PostStorageMongoDB", 42),
            fnv1a64("PostStorageMongoDB", 42)
        );
        assert_ne!(
            fnv1a64("PostStorageMongoDB", 42),
            fnv1a64("PostStorageMongoDB", 43)
        );
        assert_ne!(fnv1a64("A", 42), fnv1a64("B", 42));
    }

    #[test]
    fn opaque_name_reveals_nothing_but_length() {
        let n = opaque_name("ComposePostService", 7);
        assert!(n.starts_with('h'));
        assert_eq!(n.len(), 17);
        assert!(!n.contains("Compose"));
    }

    #[test]
    fn anonymize_preserves_structure_and_equality() {
        let mut src = Interner::new();
        let f = src.intern("Frontend");
        let m = src.intern("Mongo");
        let read = src.intern("read");
        let api = src.intern("/read");
        let t1 = Trace::new(
            api,
            SpanNode::with_children(f, read, vec![SpanNode::leaf(m, read)]),
        );
        let t2 = t1.clone();

        let mut hashed = Interner::new();
        let a1 = anonymize_trace(&t1, &src, &mut hashed, 99);
        let a2 = anonymize_trace(&t2, &src, &mut hashed, 99);

        // Structure preserved, equality preserved, semantics gone.
        assert_eq!(a1.span_count(), 2);
        assert_eq!(a1, a2);
        assert_eq!(a1.canonical_key(), a2.canonical_key());
        for (_, name) in hashed.iter() {
            assert!(name.starts_with('h'));
            assert!(!name.contains("Frontend"));
        }
        // Same operation name in two components hashes identically, keeping
        // the feature space no larger than the original one.
        assert_eq!(hashed.len(), 4);
    }
}
