//! Deterministic state capture: the [`StateBag`] container every simulator
//! component exports its dynamic state into (and restores it from).
//!
//! A bag is an *ordered* list of named values — order is part of the
//! contract, so exporting the same state twice yields the same bag and the
//! same serialized bytes. The bag is deliberately self-describing (names +
//! value kinds, recursively), which gives the `tta-snap` crate two things
//! for free: a versioned wire format that can report structured errors
//! instead of panicking on corrupt input, and a schema fingerprint
//! ([`StateBag::descriptor`]) that a dedicated test pins so that changing
//! any serialized struct without bumping the snapshot schema version fails
//! CI.
//!
//! Only *dynamic* state goes into a bag. Configuration (cache geometry,
//! unit latencies, μop programs, semantics closures, trait objects) is
//! reconstructed from the experiment definition on restore, and the bag is
//! overlaid onto that identically-configured host. Containers with
//! nondeterministic iteration order (`HashMap`, `BinaryHeap`) are exported
//! in sorted order so equal states export equal bags.
//!
//! Declared counter structs ([`trace::fields`]) travel as nested bags, one
//! named entry per field ([`StateBag::put_fields`], [`StateBag::fields`]).

use std::fmt;

use trace::fields::{Declared, Reader, Value, Writer};

/// Error from reading a [`StateBag`] (missing entry, kind mismatch, or a
/// value inconsistent with the host the bag is being restored onto).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BagError {
    /// No entry with the requested name.
    Missing(String),
    /// The entry exists but holds a different value kind.
    WrongKind(String),
    /// The value is inconsistent with the restore host (e.g. a per-SM list
    /// whose length disagrees with the configured SM count).
    Mismatch(String),
}

impl fmt::Display for BagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BagError::Missing(n) => write!(f, "snapshot entry `{n}` is missing"),
            BagError::WrongKind(n) => write!(f, "snapshot entry `{n}` has the wrong kind"),
            BagError::Mismatch(m) => write!(f, "snapshot does not fit this host: {m}"),
        }
    }
}

impl std::error::Error for BagError {}

/// One exported value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapValue {
    /// An unsigned 64-bit integer (also carries `f64` via `to_bits`).
    U64(u64),
    /// Raw bytes (e.g. the global-memory image).
    Bytes(Vec<u8>),
    /// A homogeneous-by-convention sequence.
    List(Vec<SnapValue>),
    /// A nested bag.
    Bag(StateBag),
}

impl SnapValue {
    /// One-character kind tag used by [`StateBag::descriptor`].
    fn kind(&self) -> char {
        match self {
            SnapValue::U64(_) => 'u',
            SnapValue::Bytes(_) => 'b',
            SnapValue::List(_) => 'l',
            SnapValue::Bag(_) => 'g',
        }
    }
}

/// An ordered collection of named [`SnapValue`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateBag {
    entries: Vec<(String, SnapValue)>,
}

impl StateBag {
    /// An empty bag.
    pub fn new() -> Self {
        StateBag::default()
    }

    /// Appends `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name — each exporter owns its namespace and a
    /// duplicate is a bug, not input.
    pub fn put(&mut self, name: &str, value: SnapValue) {
        assert!(
            self.get(name).is_none(),
            "duplicate snapshot entry `{name}`"
        );
        self.entries.push((name.to_owned(), value));
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, name: &str, v: u64) {
        self.put(name, SnapValue::U64(v));
    }

    /// Appends an `f64` (bit-exact, via `to_bits`).
    pub fn put_f64(&mut self, name: &str, v: f64) {
        self.put(name, SnapValue::U64(v.to_bits()));
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, name: &str, v: Vec<u8>) {
        self.put(name, SnapValue::Bytes(v));
    }

    /// Appends a list of `u64`s.
    pub fn put_u64_list(&mut self, name: &str, v: impl IntoIterator<Item = u64>) {
        self.put(
            name,
            SnapValue::List(v.into_iter().map(SnapValue::U64).collect()),
        );
    }

    /// Appends a generic list.
    pub fn put_list(&mut self, name: &str, v: Vec<SnapValue>) {
        self.put(name, SnapValue::List(v));
    }

    /// Appends a nested bag.
    pub fn put_bag(&mut self, name: &str, v: StateBag) {
        self.put(name, SnapValue::Bag(v));
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&SnapValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The entries, in export order.
    pub fn entries(&self) -> &[(String, SnapValue)] {
        &self.entries
    }

    /// Reads a `u64` entry.
    ///
    /// # Errors
    ///
    /// [`BagError::Missing`] / [`BagError::WrongKind`].
    pub fn u64(&self, name: &str) -> Result<u64, BagError> {
        match self.get(name) {
            Some(SnapValue::U64(v)) => Ok(*v),
            Some(_) => Err(BagError::WrongKind(name.to_owned())),
            None => Err(BagError::Missing(name.to_owned())),
        }
    }

    /// Reads an `f64` entry (stored as bits).
    ///
    /// # Errors
    ///
    /// [`BagError::Missing`] / [`BagError::WrongKind`].
    pub fn f64(&self, name: &str) -> Result<f64, BagError> {
        Ok(f64::from_bits(self.u64(name)?))
    }

    /// Reads a bytes entry.
    ///
    /// # Errors
    ///
    /// [`BagError::Missing`] / [`BagError::WrongKind`].
    pub fn bytes(&self, name: &str) -> Result<&[u8], BagError> {
        match self.get(name) {
            Some(SnapValue::Bytes(v)) => Ok(v),
            Some(_) => Err(BagError::WrongKind(name.to_owned())),
            None => Err(BagError::Missing(name.to_owned())),
        }
    }

    /// Reads a list entry.
    ///
    /// # Errors
    ///
    /// [`BagError::Missing`] / [`BagError::WrongKind`].
    pub fn list(&self, name: &str) -> Result<&[SnapValue], BagError> {
        match self.get(name) {
            Some(SnapValue::List(v)) => Ok(v),
            Some(_) => Err(BagError::WrongKind(name.to_owned())),
            None => Err(BagError::Missing(name.to_owned())),
        }
    }

    /// Reads a nested-bag entry.
    ///
    /// # Errors
    ///
    /// [`BagError::Missing`] / [`BagError::WrongKind`].
    pub fn bag(&self, name: &str) -> Result<&StateBag, BagError> {
        match self.get(name) {
            Some(SnapValue::Bag(v)) => Ok(v),
            Some(_) => Err(BagError::WrongKind(name.to_owned())),
            None => Err(BagError::Missing(name.to_owned())),
        }
    }

    /// Reads a list-of-`u64` entry.
    ///
    /// # Errors
    ///
    /// [`BagError::Missing`] / [`BagError::WrongKind`] (also when any list
    /// element is not a `u64`).
    pub fn u64_list(&self, name: &str) -> Result<Vec<u64>, BagError> {
        self.list(name)?
            .iter()
            .map(|v| match v {
                SnapValue::U64(x) => Ok(*x),
                _ => Err(BagError::WrongKind(name.to_owned())),
            })
            .collect()
    }

    /// The bag's schema descriptor: entry names and value kinds,
    /// recursively, with value *contents* elided. Two states exported by
    /// the same code produce the same descriptor; a code change that adds,
    /// removes, renames or re-types an entry changes it. The `tta-snap`
    /// schema-fingerprint test pins this string's hash against
    /// `SNAP_SCHEMA_VERSION`.
    pub fn descriptor(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(name);
            out.push(':');
            match value {
                SnapValue::Bag(b) => out.push_str(&b.descriptor()),
                SnapValue::List(items) => {
                    out.push('[');
                    // A list's schema is its first element's (lists are
                    // homogeneous by convention; an empty list elides it).
                    if let Some(first) = items.first() {
                        match first {
                            SnapValue::Bag(b) => out.push_str(&b.descriptor()),
                            other => out.push(other.kind()),
                        }
                    }
                    out.push(']');
                }
                other => out.push(other.kind()),
            }
        }
        out.push('}');
        out
    }
}

impl StateBag {
    /// Appends a declared value (a counter struct, a list of them, a leaf)
    /// under `name`.
    pub fn put_fields<T: Value>(&mut self, name: &str, v: &T) {
        v.write(name, self);
    }

    /// Reads a value written by [`StateBag::put_fields`].
    ///
    /// # Errors
    ///
    /// [`BagError::Missing`] / [`BagError::WrongKind`] naming the first
    /// field that is absent or of another kind.
    pub fn fields<T: Value + Default>(&self, name: &str) -> Result<T, BagError> {
        let mut v = T::default();
        v.read(name, &mut &*self)?;
        Ok(v)
    }
}

/// Declared structs become nested bags, one entry per field.
impl Writer for StateBag {
    fn u64(&mut self, name: &str, v: u64) {
        self.put_u64(name, v);
    }
    fn f64(&mut self, name: &str, v: f64) {
        self.put_f64(name, v);
    }
    fn str(&mut self, name: &str, v: &str) {
        self.put_bytes(name, v.as_bytes().to_vec());
    }
    fn u64s(&mut self, name: &str, v: &[u64]) {
        self.put_u64_list(name, v.iter().copied());
    }
    fn record<T: Declared>(&mut self, name: &str, v: &T) {
        self.put(name, record_bag(v));
    }
    fn records<T: Declared>(&mut self, name: &str, v: &[T]) {
        self.put_list(name, v.iter().map(record_bag).collect());
    }
}

fn record_bag<T: Declared>(v: &T) -> SnapValue {
    let mut bag = StateBag::new();
    v.visit(&mut bag);
    SnapValue::Bag(bag)
}

impl Reader for &StateBag {
    type Error = BagError;
    fn u64(&mut self, name: &str) -> Result<u64, BagError> {
        StateBag::u64(self, name)
    }
    fn f64(&mut self, name: &str) -> Result<f64, BagError> {
        StateBag::f64(self, name)
    }
    fn str(&mut self, name: &str) -> Result<String, BagError> {
        String::from_utf8(self.bytes(name)?.to_vec()).map_err(|_| BagError::WrongKind(name.into()))
    }
    fn u64s(&mut self, name: &str) -> Result<Vec<u64>, BagError> {
        self.u64_list(name)
    }
    fn record<T: Declared>(&mut self, name: &str, into: &mut T) -> Result<(), BagError> {
        into.read_fields(&mut self.bag(name)?)
    }
    fn records<T: Declared + Default>(&mut self, name: &str) -> Result<Vec<T>, BagError> {
        let read = |v: &SnapValue| {
            let SnapValue::Bag(b) = v else {
                return Err(BagError::WrongKind(name.to_owned()));
            };
            let mut row = T::default();
            row.read_fields(&mut &*b)?;
            Ok(row)
        };
        self.list(name)?.iter().map(read).collect()
    }
}

/// FNV-1a 64-bit hash — the snapshot subsystem's checksum/fingerprint
/// primitive (`tta-snap` file checksums, schema fingerprints, and the
/// session-identity guards that reject resuming onto the wrong stream).
/// Chosen for being dependency-free and byte-order independent, not for
/// collision resistance: a mismatch is a *diagnostic*, corruption beyond
/// it shows up as a downstream [`BagError`].
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn roundtrips_every_kind() {
        let mut inner = StateBag::new();
        inner.put_u64("x", 7);
        let mut bag = StateBag::new();
        bag.put_u64("a", 42);
        bag.put_f64("b", 1.5);
        bag.put_bytes("c", vec![1, 2, 3]);
        bag.put_u64_list("d", [4, 5]);
        bag.put_bag("e", inner);
        assert_eq!(bag.u64("a"), Ok(42));
        assert_eq!(bag.f64("b"), Ok(1.5));
        assert_eq!(bag.bytes("c"), Ok(&[1u8, 2, 3][..]));
        assert_eq!(bag.u64_list("d"), Ok(vec![4, 5]));
        assert_eq!(bag.bag("e").unwrap().u64("x"), Ok(7));
    }

    #[test]
    fn structured_errors_not_panics() {
        let mut bag = StateBag::new();
        bag.put_u64("a", 1);
        assert_eq!(bag.u64("missing"), Err(BagError::Missing("missing".into())));
        assert_eq!(bag.bytes("a"), Err(BagError::WrongKind("a".into())));
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot entry")]
    fn duplicate_names_are_bugs() {
        let mut bag = StateBag::new();
        bag.put_u64("a", 1);
        bag.put_u64("a", 2);
    }

    #[test]
    fn descriptor_reflects_names_and_kinds_not_values() {
        let build = |v: u64| {
            let mut b = StateBag::new();
            b.put_u64("clock", v);
            b.put_u64_list("stamps", [v, v + 1]);
            b
        };
        assert_eq!(build(1).descriptor(), build(999).descriptor());
        assert_eq!(build(1).descriptor(), "{clock:u,stamps:[u]}");
        let mut renamed = StateBag::new();
        renamed.put_u64("cycle", 1);
        renamed.put_u64_list("stamps", [1, 2]);
        assert_ne!(build(1).descriptor(), renamed.descriptor());
    }
}
