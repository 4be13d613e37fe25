//! FNV-1a digest over simulated outputs: identical simulations give an
//! identical digest, so a pass that drifts from the first is caught.

/// An FNV-1a-64 accumulator.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

impl Digest {
    /// A fresh digest.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Feeds a string, length-prefixed so concatenations stay distinct.
    pub fn str(&mut self, s: &str) -> &mut Digest {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds a float by its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }

    /// Feeds a value's `Debug` rendering (every field, deterministic for
    /// the plain-data types hashed here).
    pub fn debug(&mut self, v: &dyn std::fmt::Debug) -> &mut Digest {
        self.str(&format!("{v:?}"))
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
