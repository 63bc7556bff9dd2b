//! Blocking client for `chirp-serve`: one TCP connection, one
//! request/response exchange at a time. Used by the `chirp-client` CLI,
//! the load generator and the loopback tests.

use crate::wire::{
    read_response, write_request, write_trace_chunk, Request, Response, VerdictReply, WireError,
    TRACE_CHUNK_BYTES,
};
use chirp_trace::{peek_record_count, write_trace_packed, PackedTrace};
use std::fmt;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Errors surfaced by the client.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or codec failure.
    Wire(WireError),
    /// The server answered with an error response.
    Server {
        /// Machine-readable code (see [`crate::wire::err`]).
        code: u16,
        /// The server's description.
        message: String,
    },
    /// The server sent a response the protocol does not allow here.
    UnexpectedResponse(&'static str),
    /// The server closed the connection instead of responding.
    Closed,
    /// The bytes handed to `submit_bytes` are not a `CHRP` trace, caught
    /// before anything was sent.
    NotATrace,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server { code, message } => write!(f, "server error {code}: {message}"),
            ClientError::UnexpectedResponse(what) => write!(f, "unexpected response: {what}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::NotATrace => write!(f, "input is not a CHRP trace"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

/// Outcome of a submit or archived-run request: results, or admission
/// backpressure (retry later; nothing was transferred or simulated).
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// The server simulated (or answered from its ledger).
    Verdict(VerdictReply),
    /// The server's admission budget is full.
    Busy {
        /// Suggested backoff before retrying.
        retry_after_ms: u32,
        /// Bytes of trace work currently admitted server-side.
        in_flight_bytes: u64,
        /// The server's admission budget.
        budget_bytes: u64,
    },
}

/// One connection to a `chirp-serve` server.
pub struct Client {
    stream: TcpStream,
    /// Optional pause between trace chunk frames. The load generator
    /// uses this to hold an admission reservation open long enough for
    /// concurrent sessions to collide with the budget.
    pub chunk_delay: Option<Duration>,
}

impl Client {
    /// Connects to the server at `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Wire(WireError::Io(e)))?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream, chunk_delay: None })
    }

    fn exchange(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_request(&mut self.stream, req)?;
        self.read()
    }

    fn read(&mut self) -> Result<Response, ClientError> {
        match read_response(&mut self.stream)? {
            Some(Response::Error { code, message }) => Err(ClientError::Server { code, message }),
            Some(resp) => Ok(resp),
            None => Err(ClientError::Closed),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.exchange(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("ping expects pong")),
        }
    }

    /// The server's rendered metric snapshot.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.exchange(&Request::Stats)? {
            Response::StatsReply(text) => Ok(text),
            _ => Err(ClientError::UnexpectedResponse("stats expects a stats reply")),
        }
    }

    /// Submits a packed trace (encoding it to `CHRP` bytes first).
    pub fn submit_trace(
        &mut self,
        name: &str,
        category: &str,
        seed: u64,
        policies: &[String],
        telemetry: bool,
        trace: &PackedTrace,
    ) -> Result<SubmitOutcome, ClientError> {
        let bytes = write_trace_packed(trace);
        self.submit_bytes(name, category, seed, policies, telemetry, &bytes)
    }

    /// Submits `CHRP` codec bytes: announces the upload, waits for
    /// admission, then streams chunks. On `Busy` nothing is transferred.
    pub fn submit_bytes(
        &mut self,
        name: &str,
        category: &str,
        seed: u64,
        policies: &[String],
        telemetry: bool,
        bytes: &[u8],
    ) -> Result<SubmitOutcome, ClientError> {
        let records = peek_record_count(bytes).map_err(|_| ClientError::NotATrace)?;
        let submit = Request::Submit {
            name: name.to_string(),
            category: category.to_string(),
            seed,
            policies: policies.to_vec(),
            trace_bytes: bytes.len() as u64,
            records,
            telemetry,
        };
        match self.exchange(&submit)? {
            Response::Go => {}
            Response::Busy { retry_after_ms, in_flight_bytes, budget_bytes } => {
                return Ok(SubmitOutcome::Busy { retry_after_ms, in_flight_bytes, budget_bytes })
            }
            _ => return Err(ClientError::UnexpectedResponse("submit expects go or busy")),
        }
        for chunk in bytes.chunks(TRACE_CHUNK_BYTES) {
            write_trace_chunk(&mut self.stream, chunk)?;
            if let Some(delay) = self.chunk_delay {
                std::thread::sleep(delay);
            }
        }
        write_request(&mut self.stream, &Request::TraceEnd)?;
        match self.read()? {
            Response::Verdict(reply) => Ok(SubmitOutcome::Verdict(reply)),
            _ => Err(ClientError::UnexpectedResponse("trace end expects a verdict")),
        }
    }

    /// Runs policies over a trace already in the server's archive, named
    /// by the content hash `trace_tool hash` (or a previous verdict's
    /// `content_hash`) reports.
    pub fn run_archived(
        &mut self,
        hash: u64,
        name: &str,
        category: &str,
        seed: u64,
        policies: &[String],
        telemetry: bool,
    ) -> Result<SubmitOutcome, ClientError> {
        let req = Request::RunArchived {
            hash,
            name: name.to_string(),
            category: category.to_string(),
            seed,
            policies: policies.to_vec(),
            telemetry,
        };
        match self.exchange(&req)? {
            Response::Verdict(reply) => Ok(SubmitOutcome::Verdict(reply)),
            Response::Busy { retry_after_ms, in_flight_bytes, budget_bytes } => {
                Ok(SubmitOutcome::Busy { retry_after_ms, in_flight_bytes, budget_bytes })
            }
            _ => Err(ClientError::UnexpectedResponse("run expects verdict or busy")),
        }
    }
}

/// Connects to the server at `addr` and asks it to shut down gracefully
/// (drain sessions, then exit).
pub fn shutdown_server(addr: SocketAddr) -> Result<(), ClientError> {
    let mut client = Client::connect(addr)?;
    match client.exchange(&Request::Shutdown)? {
        Response::ShutdownAck => Ok(()),
        _ => Err(ClientError::UnexpectedResponse("shutdown expects an ack")),
    }
}
