//! Typed failures of the server lifecycle (bind/spawn/config) and of the
//! blocking client. Per-request failures never surface here — they become
//! HTTP error responses on the wire.

use std::fmt;
use std::io;

use crate::http::HttpError;
use crate::proto::ProtoError;

/// Server construction/lifecycle failures.
#[derive(Debug)]
pub enum NetServeError {
    /// A [`ServerConfig`](crate::ServerConfig) setting is out of range.
    InvalidConfig(String),
    /// Binding the listen socket failed.
    Bind(io::Error),
    /// The OS refused to spawn a server thread or to create its wake
    /// socket.
    Spawn(io::Error),
}

impl fmt::Display for NetServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetServeError::InvalidConfig(msg) => write!(f, "invalid server config: {msg}"),
            NetServeError::Bind(e) => write!(f, "failed to bind listen socket: {e}"),
            NetServeError::Spawn(e) => write!(f, "failed to start server thread: {e}"),
        }
    }
}

impl std::error::Error for NetServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetServeError::InvalidConfig(_) => None,
            NetServeError::Bind(e) | NetServeError::Spawn(e) => Some(e),
        }
    }
}

/// Blocking-client failures: transport problems and protocol violations by
/// the server. HTTP error *responses* are not errors at this layer — they
/// come back as [`ScoreOutcome::Rejected`](crate::client::ScoreOutcome).
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    /// The server's bytes did not parse as an HTTP/1.1 response.
    Http(HttpError),
    /// A `200 OK` body did not decode as a score response.
    Proto(ProtoError),
    /// The connection closed before a complete response arrived.
    ConnectionClosed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Http(e) => write!(f, "unparseable response: {e}"),
            ClientError::Proto(e) => write!(f, "unparseable score body: {e}"),
            ClientError::ConnectionClosed => {
                write!(f, "connection closed before a complete response")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Http(e) => Some(e),
            ClientError::Proto(e) => Some(e),
            ClientError::ConnectionClosed => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        ClientError::Http(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}
