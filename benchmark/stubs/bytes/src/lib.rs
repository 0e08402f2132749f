//! Offline stand-in for `bytes` 1.x.
//!
//! `Bytes` is a reference-counted immutable byte slice, `BytesMut` a
//! growable buffer, and `Buf`/`BufMut` carry the little-endian accessors
//! `gossiptrust-net`'s codecs and `gossiptrust-crypto`'s envelopes use. The
//! accessors are the obvious `from_le_bytes`/`extend_from_slice` bodies, as
//! in the published crate; only the zero-copy slicing machinery is absent.

use std::ops::Deref;
use std::sync::Arc;

/// Cheaply cloneable immutable bytes, with a read cursor for [`Buf`].
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    pos: usize,
}

impl Bytes {
    /// Empty bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes holding a copy of a static slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::copy_from_slice(bytes)
    }

    /// Bytes holding a copy of `bytes`.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes { data: Arc::from(bytes), pos: 0 }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::from(v), pos: 0 }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", &**self)
    }
}

/// Growable byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut(Vec::with_capacity(capacity))
    }

    /// Convert into immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Read side: a cursor over contiguous bytes.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skip `cnt` bytes. Panics when fewer remain.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Fill `dst` from the cursor. Panics when fewer bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let n = dst.len();
        dst.copy_from_slice(&self.chunk()[..n]);
        self.advance(n);
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Read a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.remaining(), "advance past the end");
        self.pos += cnt;
    }
}

/// Write side: append-only little-endian writers.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_bits().to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_round_trip() {
        let mut w = BytesMut::with_capacity(20);
        w.put_u32_le(7);
        w.put_f64_le(-0.5);
        w.put_u64_le(u64::MAX);
        let frozen = w.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.get_u32_le(), 7);
        assert_eq!(r.get_f64_le(), -0.5);
        assert_eq!(r.get_u64_le(), u64::MAX);
        assert_eq!(r.remaining(), 0);
    }
}
