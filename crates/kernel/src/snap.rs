//! Versioned binary snapshot codec for deterministic checkpoint/restore.
//!
//! Every stateful component exposes `snap(&self, &mut SnapWriter)` and a
//! matching restore path built on this module, so a whole [`System`]
//! (crate `writersblock`) can be checkpointed mid-run and resumed later
//! — in another process, after a crash — with the invariant
//! *restore(snapshot(S)) then run ≡ run straight through*, byte-identical
//! reports across all engine modes.
//!
//! Design rules (see DESIGN.md "Campaign farm & checkpointing"):
//!
//! - **One statement per layout.** A serialized type is one declaration
//!   — [`snap_struct!`](crate::snap_struct), [`snap_enum!`](crate::snap_enum)
//!   or [`snap_component!`](crate::snap_component) — whose field list is
//!   both the write order and the read order. Adding a field is one edit
//!   plus a layout-version bump; enum tags are appended, never
//!   renumbered. A type is written by hand only when its decoder does
//!   more than read fields back, and says so in a comment.
//! - **Versioned header.** Every snapshot starts with [`MAGIC`] and
//!   [`FORMAT_VERSION`]; [`open`] rejects anything else. Bumping the
//!   layout means bumping the version — old snapshots fail loudly, they
//!   are never silently misread.
//! - **Byte-deterministic.** No wall-clock, no pointers, no hash-order
//!   iteration: the `HashMap` impl writes in sorted key order. The same
//!   machine state always produces the same bytes.
//! - **Self-describing lengths.** Collections carry explicit `u64`
//!   lengths; [`SnapReader`] bounds-checks every read, so a truncated or
//!   corrupt snapshot surfaces as a [`SnapError`], never a panic in
//!   component code.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Magic bytes opening every binary snapshot.
pub const MAGIC: &[u8; 6] = b"WBSNAP";

/// Current snapshot layout version. Bump on any layout change.
/// v2: soft-error layer (guard/tag words in cache lines and directory
/// entries, MSHR ECC shadows, and the engine/auditor state in `System`).
/// Later layout changes inside the components — the directory's purge
/// state (`DirState::Purging`) and `ProtoMsg::Purge` among them — are
/// versioned by `System`'s own `SNAP_LAYOUT`, which follows this header.
pub const FORMAT_VERSION: u32 = 2;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError(pub String);

impl SnapError {
    /// Wrap a failure message.
    pub fn new(msg: impl Into<String>) -> Self {
        SnapError(msg.into())
    }
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot error: {}", self.0)
    }
}

/// Shorthand for decode results.
pub type SnapResult<T> = Result<T, SnapError>;

// ---------------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer (no header — see [`snapshot`] for the framed form).
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` (as `u64` — snapshots are word-size independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append raw bytes, length-prefixed.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Consume the writer, returning the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian byte source.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from `buf` starting at byte 0 (no header — see [`open`]).
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapError::new(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> SnapResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> SnapResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("sized")))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> SnapResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("sized")))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> SnapResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("sized")))
    }

    /// Read a `usize` (stored as `u64`), bounds-checked against the
    /// remaining input so a corrupt length cannot trigger an absurd
    /// allocation.
    pub fn usize(&mut self) -> SnapResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::new(format!("length {v} exceeds usize")))
    }

    /// Read a length that prefixes `elem_bytes`-wide elements, rejecting
    /// lengths that could not possibly fit in the remaining input.
    pub fn len_for(&mut self, elem_bytes: usize) -> SnapResult<usize> {
        let n = self.usize()?;
        if elem_bytes > 0 && n > self.remaining() / elem_bytes.max(1) + 1 {
            return Err(SnapError::new(format!(
                "implausible length {n} at offset {} ({} bytes left)",
                self.pos,
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a bool (strict: only 0 or 1).
    pub fn bool(&mut self) -> SnapResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::new(format!("bad bool byte {b:#x}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> SnapResult<String> {
        let n = self.len_for(1)?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapError::new("invalid UTF-8 in string"))
    }

    /// Read length-prefixed raw bytes.
    pub fn bytes(&mut self) -> SnapResult<Vec<u8>> {
        let n = self.len_for(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Error unless every byte has been consumed (catches layout drift).
    pub fn finish(self) -> SnapResult<()> {
        if self.remaining() != 0 {
            return Err(SnapError::new(format!(
                "{} unread bytes at end of snapshot (layout mismatch?)",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The Snap trait and blanket impls
// ---------------------------------------------------------------------------

/// Value-level serialization into the snapshot byte stream.
///
/// Types declare their layout with [`snap_struct!`](crate::snap_struct)
/// or [`snap_enum!`](crate::snap_enum) inside their own module;
/// containers compose through the blanket impls below.
pub trait Snap: Sized {
    /// Append this value to `w`.
    fn snap(&self, w: &mut SnapWriter);
    /// Decode one value from `r`.
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self>;
    /// Decode one value from `r` over `self` — what the `restore` of
    /// [`snap_component!`](crate::snap_component) calls per field. The
    /// default replaces the value; a type whose identity must survive a
    /// restore ([`crate::Stats`] and its issued handles) overrides it.
    fn unsnap_into(&mut self, r: &mut SnapReader) -> SnapResult<()> {
        *self = Self::unsnap(r)?;
        Ok(())
    }
}

macro_rules! impl_snap_prim {
    ($($t:ty => $m:ident),*) => {$(
        impl Snap for $t {
            fn snap(&self, w: &mut SnapWriter) {
                w.$m(*self);
            }
            fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
                r.$m()
            }
        }
    )*};
}
impl_snap_prim!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize, bool => bool);

impl Snap for () {
    fn snap(&self, _w: &mut SnapWriter) {}
    fn unsnap(_r: &mut SnapReader) -> SnapResult<Self> {
        Ok(())
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        r.str()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            b => Err(SnapError::new(format!("bad Option tag {b:#x}"))),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        let n = r.len_for(1)?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        let n = r.len_for(1)?;
        let mut out = VecDeque::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push_back(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        let n = r.len_for(1)?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        let n = r.len_for(2)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::unsnap(r)?;
            let v = V::unsnap(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord + std::hash::Hash, V: Snap> Snap for HashMap<K, V> {
    /// Written in sorted key order — hash-iteration order must never
    /// reach the bytes — so the wire equals a sorted `Vec<(K, V)>`.
    fn snap(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.usize(entries.len());
        for (k, v) in entries {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        let n = r.len_for(2)?;
        let mut out = HashMap::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let k = K::unsnap(r)?;
            let v = V::unsnap(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for Box<T> {
    /// A `Box` is a footprint choice, not structure: the wire is `T`'s.
    fn snap(&self, w: &mut SnapWriter) {
        (**self).snap(w);
    }
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        Ok(Box::new(T::unsnap(r)?))
    }
}

impl Snap for crate::SimRng {
    /// The raw generator state: a restored stream resumes mid-sequence.
    fn snap(&self, w: &mut SnapWriter) {
        self.state().snap(w);
    }
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        Ok(crate::SimRng::from_state(Snap::unsnap(r)?))
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        // No allocation-free const-generic collect on stable without
        // MaybeUninit gymnastics; a Vec detour is fine off the hot path.
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::unsnap(r)?);
        }
        out.try_into().map_err(|_| SnapError::new("array length mismatch"))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn unsnap(r: &mut SnapReader) -> SnapResult<Self> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?))
    }
}

// ---------------------------------------------------------------------------
// Declarative layouts
// ---------------------------------------------------------------------------

/// Declare a struct's wire layout: one ordered field list that is both
/// the write order of `snap` and the read order of `unsnap` (field types
/// are inferred). Takes named structs, tuple newtypes (`{ 0 }`) and
/// structs generic over one `Snap` parameter.
///
/// ```
/// use wb_kernel::{Snap, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Entry<T> { seq: u64, payload: Option<T> }
/// wb_kernel::snap_struct!(Entry<T> { seq, payload });
///
/// #[derive(Debug, PartialEq)]
/// enum State { Idle, Busy { until: u64 }, Moved(Entry<u16>) }
/// // Tags are frozen: append a variant with the next tag, never renumber.
/// wb_kernel::snap_enum!(State { 0 => Idle, 1 => Busy { until }, 2 => Moved(e) });
///
/// struct Unit { capacity: usize, state: State, log: Vec<u32> }
/// // `capacity` is configuration: not listed, so neither written nor read.
/// wb_kernel::snap_component!(pub Unit { state, log });
///
/// let a = Unit { capacity: 4, state: State::Busy { until: 9 }, log: vec![1, 2] };
/// let mut w = SnapWriter::new();
/// a.snap(&mut w);
/// let mut b = Unit { capacity: 4, state: State::Idle, log: vec![] };
/// b.restore(&mut SnapReader::new(&w.into_bytes())).unwrap();
/// assert_eq!((b.state, b.log), (State::Busy { until: 9 }, vec![1, 2]));
/// ```
#[macro_export]
macro_rules! snap_struct {
    ($name:ident $(<$g:ident>)? { $($field:tt),+ $(,)? }) => {
        impl $(<$g: $crate::snap::Snap>)? $crate::snap::Snap for $name $(<$g>)? {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                $( $crate::snap::Snap::snap(&self.$field, w); )+
            }
            fn unsnap(r: &mut $crate::snap::SnapReader) -> $crate::snap::SnapResult<Self> {
                Ok(Self { $( $field: $crate::snap::Snap::unsnap(r)? ),+ })
            }
        }
    };
}

/// Declare an enum's wire layout: one `tag => Variant` row per variant
/// (unit, `{ fields }` or `(binders)`), the frozen `u8` tag a literal in
/// this one list. A missing variant fails to compile; an unknown tag
/// decodes to a [`SnapError`](crate::snap::SnapError) naming the type.
/// Example under [`snap_struct!`](crate::snap_struct).
#[macro_export]
macro_rules! snap_enum {
    ($name:ident { $(
        $tag:literal => $variant:ident
            $( { $($field:ident),+ $(,)? } )?
            $( ( $($elem:ident),+ $(,)? ) )?
    ),+ $(,)? }) => {
        impl $crate::snap::Snap for $name {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                match self {$(
                    Self::$variant $( { $($field),+ } )? $( ( $($elem),+ ) )? => {
                        w.u8($tag);
                        $( $( $crate::snap::Snap::snap($field, w); )+ )?
                        $( $( $crate::snap::Snap::snap($elem, w); )+ )?
                    }
                )+}
            }
            fn unsnap(r: &mut $crate::snap::SnapReader) -> $crate::snap::SnapResult<Self> {
                match r.u8()? {
                    $( $tag => Ok(Self::$variant
                        $( { $( $field: $crate::snap::Snap::unsnap(r)? ),+ } )?
                        $( ( $( { let $elem = $crate::snap::Snap::unsnap(r)?; $elem } ),+ ) )?
                    ), )+
                    t => Err($crate::snap::SnapError::new(format!(
                        "bad {} tag {t:#x}",
                        stringify!($name)
                    ))),
                }
            }
        }
    };
}

/// Declare the in-place checkpoint of a component built from
/// configuration: one field list generating the inherent
/// `snap(&self, w)` and `restore(&mut self, r)` at the given visibility.
/// Fields not listed (configuration, tracers, scratch) are neither
/// written nor touched; listed fields restore through
/// [`Snap::unsnap_into`](crate::snap::Snap::unsnap_into). Example under
/// [`snap_struct!`](crate::snap_struct).
#[macro_export]
macro_rules! snap_component {
    ($vis:vis $name:ident $(<$g:ident>)? { $($field:ident),+ $(,)? }) => {
        impl $(<$g: $crate::snap::Snap>)? $name $(<$g>)? {
            /// Append every execution-visible field to `w`.
            $vis fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                $( $crate::snap::Snap::snap(&self.$field, w); )+
            }
            /// Inverse of `snap`, in place, over a value built from the
            /// same configuration.
            $vis fn restore(
                &mut self,
                r: &mut $crate::snap::SnapReader,
            ) -> $crate::snap::SnapResult<()> {
                $( $crate::snap::Snap::unsnap_into(&mut self.$field, r)?; )+
                Ok(())
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Framed snapshots
// ---------------------------------------------------------------------------

/// Produce a framed snapshot: header (magic + version), then whatever
/// `payload` writes.
pub fn snapshot(payload: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.buf.extend_from_slice(MAGIC);
    w.u32(FORMAT_VERSION);
    payload(&mut w);
    w.into_bytes()
}

/// Open a framed snapshot: validate the header, return a reader
/// positioned at the payload.
pub fn open(bytes: &[u8]) -> SnapResult<SnapReader<'_>> {
    let mut r = SnapReader::new(bytes);
    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(SnapError::new("not a WBSNAP snapshot (bad magic)"));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapError::new(format!(
            "snapshot format version {version} unsupported (this build reads {FORMAT_VERSION})"
        )));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.bool(true);
        w.bool(false);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn containers_round_trip() {
        #[allow(clippy::type_complexity)]
        let value: (Vec<u64>, Option<String>, BTreeMap<u32, bool>, VecDeque<u16>, [u8; 4]) = (
            vec![1, 2, 3],
            Some("x".to_owned()),
            [(1u32, true), (9, false)].into_iter().collect(),
            VecDeque::from(vec![7u16, 8]),
            [4, 3, 2, 1],
        );
        let mut w = SnapWriter::new();
        value.0.snap(&mut w);
        value.1.snap(&mut w);
        value.2.snap(&mut w);
        value.3.snap(&mut w);
        value.4.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Vec::<u64>::unsnap(&mut r).unwrap(), value.0);
        assert_eq!(Option::<String>::unsnap(&mut r).unwrap(), value.1);
        assert_eq!(BTreeMap::<u32, bool>::unsnap(&mut r).unwrap(), value.2);
        assert_eq!(VecDeque::<u16>::unsnap(&mut r).unwrap(), value.3);
        assert_eq!(<[u8; 4]>::unsnap(&mut r).unwrap(), value.4);
        r.finish().unwrap();
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Named {
        seq: u64,
        tag: Option<u16>,
        words: [u8; 3],
    }
    crate::snap_struct!(Named { seq, tag, words });

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Newtype(u32);
    crate::snap_struct!(Newtype { 0 });

    #[derive(Debug, Clone, PartialEq)]
    struct Generic<T> {
        payload: T,
        n: u32,
    }
    crate::snap_struct!(Generic<T> { payload, n });

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Unit,
        Fields { a: u64, b: bool },
        Tuple(Newtype, Generic<String>),
    }
    crate::snap_enum!(Shape { 0 => Unit, 1 => Fields { a, b }, 4 => Tuple(x, y) });

    fn bytes_of(v: &impl Snap) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        w.into_bytes()
    }

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = bytes_of(&v);
        let mut r = SnapReader::new(&bytes);
        assert_eq!(T::unsnap(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    #[test]
    fn declared_layouts_round_trip_in_field_order() {
        let named = Named { seq: 9, tag: Some(0xbeef), words: [1, 2, 3] };
        // The declaration's order is the wire order.
        assert_eq!(bytes_of(&named), bytes_of(&(9u64, Some(0xbeefu16), [1u8, 2, 3])));
        round_trip(named);
        round_trip(Newtype(7));
        round_trip(Generic { payload: vec![Newtype(1), Newtype(2)], n: 3 });
        round_trip(Box::new(Generic { payload: Newtype(5), n: 1 }));
        for shape in [
            Shape::Unit,
            Shape::Fields { a: u64::MAX, b: true },
            Shape::Tuple(Newtype(8), Generic { payload: "x".to_owned(), n: 2 }),
        ] {
            round_trip(shape);
        }
        // The tag is the literal in the declaration, not the variant's position.
        assert_eq!(bytes_of(&Shape::Tuple(Newtype(0), Generic { payload: String::new(), n: 0 }))[0], 4);
        let mut rng = crate::SimRng::new(11);
        rng.next_u64();
        let mut back = crate::SimRng::unsnap(&mut SnapReader::new(&bytes_of(&rng))).unwrap();
        assert_eq!(back.next_u64(), rng.next_u64(), "a restored stream resumes mid-sequence");
    }

    #[test]
    fn unknown_enum_tag_is_an_error_naming_the_type() {
        // 2 and 3 were never assigned: tags are frozen, gaps stay gaps.
        for tag in [2u8, 3, 5, 0xff] {
            let e = Shape::unsnap(&mut SnapReader::new(&[tag, 0, 0, 0, 0])).unwrap_err();
            assert_eq!(e, SnapError::new(format!("bad Shape tag {tag:#x}")));
        }
    }

    #[test]
    fn hashmap_bytes_are_the_sorted_pair_vector() {
        let mut keys: Vec<u32> = (0..200).map(|i| i * 7919 % 1009).collect();
        let sorted: Vec<(Newtype, u64)> = {
            let mut k = keys.clone();
            k.sort_unstable();
            k.into_iter().map(|k| (Newtype(k), k as u64 * 3)).collect()
        };
        let mut rng = crate::SimRng::new(5);
        for _ in 0..3 {
            rng.shuffle(&mut keys);
            let map: HashMap<Newtype, u64> =
                keys.iter().map(|&k| (Newtype(k), k as u64 * 3)).collect();
            assert_eq!(bytes_of(&map), bytes_of(&sorted), "insertion order leaked into the bytes");
            let back = HashMap::<Newtype, u64>::unsnap(&mut SnapReader::new(&bytes_of(&map)));
            assert_eq!(back.unwrap(), map);
        }
    }

    #[test]
    fn component_restore_goes_through_unsnap_into() {
        struct Unit {
            capacity: usize,
            queue: Vec<Named>,
            stats: crate::Stats,
        }
        crate::snap_component!(Unit { queue, stats });

        let mut a = Unit { capacity: 4, queue: Vec::new(), stats: crate::Stats::new() };
        a.queue.push(Named { seq: 1, tag: None, words: [0; 3] });
        a.stats.add("loads", 7);
        let mut w = SnapWriter::new();
        a.snap(&mut w);
        let bytes = w.into_bytes();

        // A unit built from another configuration, with a handle issued
        // before the restore: unlisted fields are untouched, listed
        // ones are replaced, and `Stats` keeps the handle live.
        let mut b = Unit { capacity: 8, queue: Vec::new(), stats: crate::Stats::new() };
        let h = b.stats.handle("loads");
        let mut r = SnapReader::new(&bytes);
        b.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!((b.capacity, &b.queue), (8, &a.queue));
        b.stats.inc_h(h);
        assert_eq!(b.stats.get("loads"), 8);
        assert!(b.restore(&mut SnapReader::new(&bytes[..bytes.len() - 1])).is_err());
    }

    #[test]
    fn framed_header_is_enforced() {
        let bytes = snapshot(|w| w.u64(42));
        let mut r = open(&bytes).expect("valid header");
        assert_eq!(r.u64().unwrap(), 42);
        r.finish().unwrap();

        assert!(open(b"not a snapshot").is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[MAGIC.len()] ^= 0xff;
        assert!(open(&wrong_version).is_err());
    }

    #[test]
    fn truncation_and_leftovers_are_errors() {
        let bytes = snapshot(|w| w.u64(42));
        let mut r = open(&bytes[..bytes.len() - 1]).expect("header intact");
        assert!(r.u64().is_err(), "truncated payload must fail");

        let mut r = open(&bytes).unwrap();
        assert_eq!(r.u32().unwrap(), 42); // deliberately under-read
        assert!(r.finish().is_err(), "unread bytes must fail finish()");
    }

    #[test]
    fn implausible_lengths_are_rejected() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // absurd element count
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(Vec::<u64>::unsnap(&mut r).is_err());
    }
}
