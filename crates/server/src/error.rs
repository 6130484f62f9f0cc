//! Error type for the networked serving layer.

use crate::wire::ErrorCode;
use std::fmt;

/// Errors produced by the `nimbus-server` crate, on either side of the
/// wire.
#[derive(Debug)]
pub enum ServerError {
    /// An underlying socket operation failed (includes read/write
    /// timeouts, which surface as `WouldBlock`/`TimedOut` I/O errors).
    Io(std::io::Error),
    /// The peer closed the connection mid-frame.
    ConnectionClosed,
    /// The server shed this connection at admission: its bounded queue was
    /// full, so it answered with a typed `BUSY` frame instead of stalling.
    /// Surfaces once the client's retry budget (if any) is exhausted.
    Busy {
        /// Server's advisory back-off hint in milliseconds (0 = no hint).
        retry_after_ms: u32,
    },
    /// A frame violated the wire protocol (bad magic, truncated body,
    /// trailing bytes, unknown opcode, string/vector over its cap).
    Protocol {
        /// Human-readable reason.
        reason: String,
    },
    /// The peer speaks a different protocol version.
    UnsupportedVersion {
        /// Version byte received.
        got: u8,
    },
    /// A frame announced a length beyond [`crate::wire::MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Announced payload length.
        len: u64,
    },
    /// The server answered with a typed error frame.
    Remote {
        /// Machine-readable error code.
        code: ErrorCode,
        /// Server-rendered message.
        message: String,
    },
    /// Invalid server or client configuration.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A server-side broker operation failed (only surfaces in-process,
    /// e.g. when starting a server on an unopened market).
    Market(nimbus_market::MarketError),
}

impl ServerError {
    /// Whether this is the typed admission-control rejection.
    pub fn is_busy(&self) -> bool {
        matches!(self, ServerError::Busy { .. })
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
            ServerError::ConnectionClosed => write!(f, "connection closed by peer"),
            ServerError::Busy { retry_after_ms } => {
                write!(
                    f,
                    "server busy: admission queue full (retry after {retry_after_ms} ms)"
                )
            }
            ServerError::Protocol { reason } => write!(f, "protocol error: {reason}"),
            ServerError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this side speaks {})",
                    crate::wire::VERSION
                )
            }
            ServerError::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {} byte limit",
                    crate::wire::MAX_FRAME_LEN
                )
            }
            ServerError::Remote { code, message } => {
                write!(f, "server error [{code:?}]: {message}")
            }
            ServerError::InvalidConfig { reason } => {
                write!(f, "invalid server configuration: {reason}")
            }
            ServerError::Market(e) => write!(f, "market error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Market(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<nimbus_market::MarketError> for ServerError {
    fn from(e: nimbus_market::MarketError) -> Self {
        ServerError::Market(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let busy = ServerError::Busy { retry_after_ms: 25 };
        assert!(busy.to_string().contains("admission queue"));
        assert!(busy.to_string().contains("25 ms"));
        assert!(busy.is_busy());
        assert!(!ServerError::ConnectionClosed.is_busy());
        assert!(ServerError::UnsupportedVersion { got: 9 }
            .to_string()
            .contains('9'));
        assert!(ServerError::FrameTooLarge { len: 1 << 30 }
            .to_string()
            .contains("limit"));
        assert!(ServerError::Remote {
            code: ErrorCode::QuoteExpired,
            message: "stale".into()
        }
        .to_string()
        .contains("QuoteExpired"));
    }

    #[test]
    fn sources_are_preserved() {
        use std::error::Error;
        let e: ServerError = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow").into();
        assert!(e.source().is_some());
        let e: ServerError = nimbus_market::MarketError::MarketNotOpen.into();
        assert!(e.source().is_some());
    }
}
