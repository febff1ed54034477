//! String interning for component, operation and API names.
//!
//! An [`Interner`] that exists is complete: the name → symbol index is built
//! as names are interned and rebuilt by `Deserialize` from the serialised
//! `names` list (a table that repeats a name is refused there), so
//! [`Interner::get`], [`Interner::intern`] and [`Interner::translate`]
//! answer the same on a loaded table as on the one that was saved.
//!
//! Two producers number the same names differently. [`Interner::translate`]
//! is the bridge: one name lookup that carries a symbol of another table
//! into this one. Feature extraction calls it once per *distinct* source
//! symbol (it memoises the answers) and never rewrites a trace.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// An interned name. Cheap to copy, hash and compare; resolve it back to a
/// string through the [`Interner`] that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// A sentinel symbol that matches no interned name; used when
    /// translating symbols across interners and the source name is unknown
    /// to the target.
    pub const UNKNOWN: Sym = Sym(u32::MAX);

    /// Raw index of the symbol inside its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Packs two symbols into one `u64` (used for canonical trace keys and
    /// feature-space path keys).
    pub fn pack(a: Sym, b: Sym) -> u64 {
        (u64::from(a.0) << 32) | u64::from(b.0)
    }

    /// Inverse of [`Sym::pack`].
    pub fn unpack(packed: u64) -> (Sym, Sym) {
        (Sym((packed >> 32) as u32), Sym(packed as u32))
    }
}

/// A bidirectional string ↔ [`Sym`] table.
///
/// Trace producers and consumers share one interner so that symbol equality
/// means name equality.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Interner {
    names: Vec<String>,
    /// `names` inverted; derived, so only `names` is written out.
    #[serde(skip)]
    lookup: HashMap<String, u32>,
}

impl Deserialize for Interner {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Wire {
            names: Vec<String>,
        }
        let mut table = Self::new();
        for name in Wire::from_value(value)?.names {
            if table.get(&name).is_some() {
                return Err(serde::Error::custom(format!(
                    "Interner: name {name:?} appears twice"
                )));
            }
            table.intern(&name);
        }
        Ok(table)
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol (existing or new).
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&id) = self.lookup.get(name) {
            return Sym(id);
        }
        // Over 4 billion distinct names is out of scope by construction;
        // the expect documents that invariant.
        #[allow(clippy::expect_used)]
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push(name.to_owned());
        self.lookup.insert(name.to_owned(), id);
        Sym(id)
    }

    /// Looks up an already-interned name without inserting.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.lookup.get(name).map(|&id| Sym(id))
    }

    /// Resolves a symbol back to its name.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner and is out of
    /// range.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(Sym, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Sym(i as u32), n.as_str()))
    }

    /// Translates a symbol produced by `from` into this interner's symbol
    /// for the same name, or [`Sym::UNKNOWN`] when this interner has never
    /// seen the name.
    pub fn translate(&self, from: &Interner, sym: Sym) -> Sym {
        self.get(from.resolve(sym)).unwrap_or(Sym::UNKNOWN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("FrontendNGINX");
        let b = i.intern("FrontendNGINX");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
        assert_eq!(i.resolve(a), "FrontendNGINX");
    }

    #[test]
    fn distinct_names_get_distinct_syms() {
        let mut i = Interner::new();
        let a = i.intern("composePost");
        let b = i.intern("readTimeline");
        assert_ne!(a, b);
        assert_eq!(i.get("readTimeline"), Some(b));
        assert_eq!(i.get("missing"), None);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let a = Sym(7);
        let b = Sym(123_456);
        let packed = Sym::pack(a, b);
        assert_eq!(Sym::unpack(packed), (a, b));
    }

    #[test]
    fn iter_preserves_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let names: Vec<&str> = i.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn a_loaded_table_answers_as_the_one_saved() {
        let mut saved = Interner::new();
        for name in ["Frontend", "Mongo", "find"] {
            saved.intern(name);
        }
        let json = serde_json::to_string(&saved).unwrap();
        let mut loaded: Interner = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&loaded).unwrap(), json);

        // Another producer's numbering of an overlapping name set.
        let mut other = Interner::new();
        for name in ["find", "Ghost", "Frontend"] {
            other.intern(name);
        }
        for (sym, name) in saved.iter() {
            assert_eq!(loaded.get(name), Some(sym));
        }
        assert_eq!(loaded.get("Ghost"), None);
        for (sym, _) in other.iter() {
            assert_eq!(loaded.translate(&other, sym), saved.translate(&other, sym));
        }
        assert_eq!(loaded.translate(&other, Sym(1)), Sym::UNKNOWN);
        for name in ["Mongo", "Ghost"] {
            assert_eq!(loaded.intern(name), saved.intern(name));
        }
        assert_eq!(loaded.len(), 4);
    }

    #[test]
    fn tables_the_index_cannot_represent_are_errors() {
        for (json, expect) in [
            (r#"{"names":["a","b","a"]}"#, "\"a\" appears twice"),
            (r#"{"names":["",""]}"#, "appears twice"),
            (r#"{"names":["a",7]}"#, ""),
            (r#"{}"#, ""),
        ] {
            let err = serde_json::from_str::<Interner>(json).expect_err(json);
            assert!(err.to_string().contains(expect), "{json}: {err}");
        }
    }
}
