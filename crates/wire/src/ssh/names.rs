//! SSH `name-list` encoding (RFC 4251 §5).
//!
//! A name-list is a comma-separated list of US-ASCII names prefixed with a
//! 32-bit length.  `SSH_MSG_KEXINIT` consists almost entirely of name-lists,
//! and RFC 4253 requires every algorithm list to be ordered by preference —
//! which is why the lists fingerprint the implementation and form part of
//! the paper's SSH identifier.

use crate::error::check_len;
use crate::{Result, WireError};
use serde::{Deserialize, Serialize, Value};

/// An ordered list of algorithm names.
///
/// The list keeps its wire text — the names comma-joined — in one buffer,
/// so capturing, cloning and dropping a list costs one allocation, not one
/// per name.  Every constructor rejects names that cannot be encoded
/// (empty, containing `,`, or not ASCII), so comparing the text compares
/// the names one by one.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct NameList {
    text: String,
}

impl NameList {
    /// Build a name-list from `names`, rejecting any name the wire form
    /// cannot carry: empty names, names containing `,`, non-ASCII names.
    pub fn try_new<I, S>(names: I) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut text = String::new();
        for name in names {
            let name = name.as_ref();
            if name.is_empty() || name.contains(',') || !name.is_ascii() {
                return Err(WireError::BadValue { field: "name-list" });
            }
            if !text.is_empty() {
                text.push(',');
            }
            text.push_str(name);
        }
        Ok(NameList { text })
    }

    /// Build a name-list from literal names.
    ///
    /// # Panics
    ///
    /// If a name cannot be encoded; use [`NameList::try_new`] for names
    /// that do not come from the source.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self::try_new(names).unwrap_or_else(|e| panic!("NameList::new: {e}"))
    }

    /// The comma-joined textual form (what appears on the wire after the
    /// length prefix).
    pub fn joined(&self) -> &str {
        &self.text
    }

    /// The names in preference order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        (!self.text.is_empty())
            .then(|| self.text.split(','))
            .into_iter()
            .flatten()
    }

    /// Number of names in the list.
    pub fn len(&self) -> usize {
        self.names().count()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The first (most preferred) name, if any.
    pub fn preferred(&self) -> Option<&str> {
        self.names().next()
    }

    /// Whether the list contains `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.names().any(|n| n == name)
    }

    /// Parse a name-list from the front of `buf`; returns the list and bytes
    /// consumed (4 + string length).
    pub fn parse(buf: &[u8]) -> Result<(Self, usize)> {
        check_len(buf, 4)?;
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        check_len(buf, 4 + len)?;
        let text = std::str::from_utf8(&buf[4..4 + len])
            .map_err(|_| WireError::BadEncoding { field: "name-list" })?;
        check_text(text)?;
        Ok((
            NameList {
                text: text.to_owned(),
            },
            4 + len,
        ))
    }

    /// Emit the name-list to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.text.len() as u32).to_be_bytes());
        out.extend_from_slice(self.text.as_bytes());
    }
}

/// The checks [`NameList::parse`] applies to the wire text: US-ASCII, and
/// no empty name (leading, trailing or doubled commas).
fn check_text(text: &str) -> Result<()> {
    if !text.is_ascii() {
        return Err(WireError::BadEncoding { field: "name-list" });
    }
    if !text.is_empty() && (text.starts_with(',') || text.ends_with(',') || text.contains(",,")) {
        return Err(WireError::BadValue { field: "name-list" });
    }
    Ok(())
}

/// A name-list serializes as its wire text.
impl Serialize for NameList {
    fn to_value(&self) -> Value {
        Value::Str(self.text.clone())
    }
}

/// The wire text back into a list, under the same checks as
/// [`NameList::parse`].
impl Deserialize for NameList {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        let text = String::from_value(value)?;
        check_text(&text).map_err(|e| serde::Error::new(e.to_string()))?;
        Ok(NameList { text })
    }
}

impl<S: AsRef<str>> FromIterator<S> for NameList {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        NameList::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let list = NameList::new(["curve25519-sha256", "ecdh-sha2-nistp256"]);
        let mut buf = Vec::new();
        list.emit(&mut buf);
        let (parsed, consumed) = NameList::parse(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(parsed, list);
        assert_eq!(parsed.preferred(), Some("curve25519-sha256"));
        assert!(parsed.contains("ecdh-sha2-nistp256"));
        assert!(!parsed.contains("diffie-hellman-group1-sha1"));
        assert!(!parsed.contains("curve25519"));
        assert_eq!(
            parsed.names().collect::<Vec<_>>(),
            ["curve25519-sha256", "ecdh-sha2-nistp256"]
        );
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn empty_list_roundtrip() {
        let list = NameList::default();
        let mut buf = Vec::new();
        list.emit(&mut buf);
        assert_eq!(buf, [0, 0, 0, 0]);
        let (parsed, consumed) = NameList::parse(&buf).unwrap();
        assert_eq!(consumed, 4);
        assert!(parsed.is_empty());
        assert_eq!(parsed.len(), 0);
        assert_eq!(parsed.names().count(), 0);
        assert_eq!(parsed.preferred(), None);
        assert!(!parsed.contains(""));
        assert_eq!(parsed, NameList::new(Vec::<String>::new()));
    }

    #[test]
    fn order_is_preserved() {
        // Preference order matters: two servers supporting the same set of
        // algorithms in a different order have different fingerprints.
        let a = NameList::new(["aes128-ctr", "aes256-ctr"]);
        let b = NameList::new(["aes256-ctr", "aes128-ctr"]);
        assert_ne!(a, b);
        assert_eq!(a.joined(), "aes128-ctr,aes256-ctr");
    }

    #[test]
    fn malformed_lists_are_rejected() {
        // Leading, trailing and doubled commas (an empty name).
        for text in [&b",ab"[..], b"ab,", b"a,,b", b","] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&(text.len() as u32).to_be_bytes());
            buf.extend_from_slice(text);
            assert!(
                matches!(NameList::parse(&buf), Err(WireError::BadValue { .. })),
                "{text:?}"
            );
        }

        // Length pointing past the end.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(matches!(
            NameList::parse(&buf),
            Err(WireError::Truncated { .. })
        ));

        // Non-ASCII.
        let mut buf = Vec::new();
        let s = "é".as_bytes();
        buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
        buf.extend_from_slice(s);
        assert!(matches!(
            NameList::parse(&buf),
            Err(WireError::BadEncoding { .. })
        ));
    }

    #[test]
    fn unencodable_names_are_rejected() {
        let bad = Err(WireError::BadValue { field: "name-list" });
        assert_eq!(NameList::try_new([""]), bad);
        assert_eq!(NameList::try_new(["aes128-ctr", ""]), bad);
        assert_eq!(NameList::try_new(["aes128-ctr,aes256-ctr"]), bad);
        assert_eq!(NameList::try_new([","]), bad);
        assert_eq!(NameList::try_new(["aes128-ctr", "aés256-ctr"]), bad);
        assert!(NameList::try_new(["aes128-ctr", "aes256-ctr"]).is_ok());
    }

    #[test]
    #[should_panic(expected = "name-list")]
    fn new_panics_on_an_unencodable_name() {
        let _ = NameList::new(["a,b"]);
    }

    #[test]
    fn serde_uses_the_wire_text() {
        let list = NameList::new(["none", "zlib@openssh.com"]);
        let json = serde_json::to_string(&list).unwrap();
        assert_eq!(json, r#""none,zlib@openssh.com""#);
        assert_eq!(serde_json::from_str::<NameList>(&json).unwrap(), list);
        assert_eq!(
            serde_json::from_str::<NameList>(r#""""#).unwrap(),
            NameList::default()
        );
        for bad in [r#"",none""#, r#""none,,zlib""#, r#""né""#] {
            assert!(serde_json::from_str::<NameList>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn from_iterator() {
        let list: NameList = ["a", "b"].into_iter().collect();
        assert_eq!(list.len(), 2);
    }
}
