//! Lowercase hex encoding of byte strings — the dependency-free way the
//! workspace carries binary payloads inside JSON documents (the service's
//! `upload` verb body and the engine-checkpoint blob).
//!
//! Both directions are table-driven: encoding appends two digits per byte
//! from a 16-entry digit table, decoding maps each digit through a 256-entry
//! value table, so neither allocates per byte.

use std::fmt;

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a hex digit in [`VALUES`].
const INVALID: u8 = 0xff;

/// Digit value of every byte (upper- and lowercase accepted), or
/// [`INVALID`].
const VALUES: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
};

/// Why [`decode`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HexError {
    /// The text has an odd number of digits.
    OddLength,
    /// The byte at this offset is not a hex digit.
    BadDigit {
        /// Byte offset of the offending character.
        offset: usize,
    },
}

impl fmt::Display for HexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HexError::OddLength => f.write_str("hex text must have an even number of digits"),
            HexError::BadDigit { offset } => {
                write!(f, "hex text has a non-hex character at offset {offset}")
            }
        }
    }
}

impl std::error::Error for HexError {}

/// Encodes `bytes` as lowercase hex, two digits per byte.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &byte in bytes {
        out.push(char::from(DIGITS[usize::from(byte >> 4)]));
        out.push(char::from(DIGITS[usize::from(byte & 0x0f)]));
    }
    out
}

/// Decodes lower- or uppercase hex text back into bytes.
///
/// # Errors
///
/// [`HexError::OddLength`] on an odd digit count, [`HexError::BadDigit`] on
/// the first character that is not a hex digit.
pub fn decode(text: &str) -> Result<Vec<u8>, HexError> {
    let digits = text.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return Err(HexError::OddLength);
    }
    let mut out = Vec::with_capacity(digits.len() / 2);
    for (pair_index, pair) in digits.chunks_exact(2).enumerate() {
        let hi = VALUES[usize::from(pair[0])];
        let lo = VALUES[usize::from(pair[1])];
        if hi == INVALID || lo == INVALID {
            let offset = pair_index * 2 + usize::from(hi != INVALID);
            return Err(HexError::BadDigit { offset });
        }
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_codec_roundtrips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        let text = encode(&bytes);
        assert_eq!(text.len(), 512);
        assert!(text.starts_with("000102") && text.ends_with("fdfeff"));
        assert_eq!(decode(&text).unwrap(), bytes);
        assert_eq!(decode(&text.to_uppercase()).unwrap(), bytes);
        assert_eq!(decode("abc"), Err(HexError::OddLength));
        assert_eq!(decode("zz"), Err(HexError::BadDigit { offset: 0 }));
        assert_eq!(decode("0g"), Err(HexError::BadDigit { offset: 1 }));
        assert_eq!(decode("00é"), Err(HexError::BadDigit { offset: 2 }));
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
        assert_eq!(encode(&[]), "");
    }
}
