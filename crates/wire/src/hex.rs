//! Fast lowercase-hex rendering.
//!
//! Identifier construction renders byte material (host keys, engine IDs,
//! BGP capability payloads) as lowercase hex once per observation, so the
//! per-byte `format!("{b:02x}")` idiom — one formatter invocation and one
//! allocation-churning `String` per byte — shows up in extraction
//! profiles.  This module is the shared replacement: a 512-byte lookup
//! table appended pair-by-pair.
//!
//! The canonical implementation lives here (the bottom layer, so the wire
//! codecs can use it); `alias-core` re-exports the module for the
//! identifier-rendering call sites.

/// Two lowercase-hex digits for every byte value, packed as `HEX[2i..2i+2]`.
const HEX_DIGITS: &[u8; 512] = &{
    let mut table = [0u8; 512];
    let alphabet = b"0123456789abcdef";
    let mut i = 0;
    while i < 256 {
        table[2 * i] = alphabet[i >> 4];
        table[2 * i + 1] = alphabet[i & 0xf];
        i += 1;
    }
    table
};

/// Append the lowercase-hex rendering of `bytes` to `out`.
pub fn push_hex(out: &mut String, bytes: &[u8]) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        let i = 2 * b as usize;
        out.push_str(std::str::from_utf8(&HEX_DIGITS[i..i + 2]).expect("hex digits are ASCII"));
    }
}

/// Append the lowercase-hex rendering of `bytes` to a byte buffer.
pub fn extend_hex(out: &mut Vec<u8>, bytes: &[u8]) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        let i = 2 * b as usize;
        out.extend_from_slice(&HEX_DIGITS[i..i + 2]);
    }
}

/// The lowercase-hex rendering of `bytes` as a fresh `String`.
pub fn hex_string(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    push_hex(&mut out, bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_lowercase_zero_padded_pairs() {
        assert_eq!(hex_string(&[]), "");
        assert_eq!(hex_string(&[0x00]), "00");
        assert_eq!(hex_string(&[0x0f, 0xa0, 0xff]), "0fa0ff");
        assert_eq!(hex_string(&[1, 2, 3]), "010203");
    }

    #[test]
    fn matches_the_formatter_for_every_byte_value() {
        let all: Vec<u8> = (0u8..=255).collect();
        let expected: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex_string(&all), expected);
        let mut pushed = String::from("prefix:");
        push_hex(&mut pushed, &all);
        assert_eq!(pushed, format!("prefix:{expected}"));
        let mut extended = b"prefix:".to_vec();
        extend_hex(&mut extended, &all);
        assert_eq!(extended, format!("prefix:{expected}").into_bytes());
    }
}
