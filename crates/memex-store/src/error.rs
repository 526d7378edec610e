//! Error types shared by every storage component.

use std::fmt;

/// Result alias used throughout the store.
pub type StoreResult<T> = Result<T, StoreError>;

/// Unified error type for the storage substrate.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure (file-backed stores only).
    Io(std::io::Error),
    /// A record or file failed its integrity check (bad magic, CRC
    /// mismatch, truncated frame, unsupported format version).
    Corrupt(String),
    /// A count or length exceeds what its on-disk field can hold.
    TooLarge {
        what: &'static str,
        len: usize,
        max: usize,
    },
    /// Invalid argument (empty key, bad column index, ...).
    Invalid(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corruption detected: {m}"),
            StoreError::TooLarge { what, len, max } => {
                write!(f, "{what} of {len} bytes exceeds maximum of {max}")
            }
            StoreError::Invalid(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = StoreError::TooLarge {
            what: "key",
            len: 9000,
            max: 1024,
        };
        assert_eq!(e.to_string(), "key of 9000 bytes exceeds maximum of 1024");
        let e = StoreError::Corrupt("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = std::io::Error::other("boom");
        let e: StoreError = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
