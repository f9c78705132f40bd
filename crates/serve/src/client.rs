//! A blocking client for the jp-serve wire protocol.

use crate::proto::{self, FrameRead, Request, RequestBody, Response, WIRE_VERSION};
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Source of tracing ids, shared by every [`Client`] in the process so
/// concurrent loadgen clients never mint the same id.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

/// Mints a fresh tracing id: the process id in the high 32 bits (so
/// ids from separate client processes hitting one server stay
/// distinct) and a process-wide counter in the low 32.
fn mint_request_id() -> u64 {
    // race:order(monotonic id allocation only needs uniqueness)
    let n = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
    (u64::from(std::process::id()) << 32) | (n & 0xFFFF_FFFF)
}

/// Read timeout per poll; combined with [`MAX_IDLE_POLLS`] this bounds
/// how long [`Client::request`] waits for an answer.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Idle polls tolerated before a request is declared timed out
/// (~60 s at the 50 ms poll interval — generous for a solver job,
/// finite for a hung server).
const MAX_IDLE_POLLS: u32 = 1200;

/// One connection to a jp-serve server; requests are synchronous, one
/// in flight at a time.
pub struct Client {
    /// The connection, read through a buffer so a response frame,
    /// header and payload, usually costs one read.
    stream: BufReader<TcpStream>,
    /// The request frame being sent, reused from request to request.
    frame: Vec<u8>,
    next_id: u64,
}

impl Client {
    /// Connects and configures the socket timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream: BufReader::new(stream),
            frame: Vec::new(),
            next_id: 1,
        })
    }

    /// Sends one request and blocks for its response.
    pub fn request(&mut self, body: RequestBody) -> io::Result<Response> {
        self.request_traced(body).map(|(_, resp)| resp)
    }

    /// Sends one request and blocks for its response, also returning
    /// the tracing id minted for the frame — the id the server stamps
    /// into every jp-obs event the request causes, and the handle
    /// `jp trace request <id>` reconstructs from.
    pub fn request_traced(&mut self, body: RequestBody) -> io::Result<(u64, Response)> {
        let id = self.next_id;
        self.next_id += 1;
        let request = mint_request_id();
        let req = Request {
            v: WIRE_VERSION,
            id,
            request: Some(request),
            body,
        };
        proto::encode_request(&req, &mut self.frame)?;
        self.stream.get_mut().write_all(&self.frame)?;
        let mut idle = 0u32;
        loop {
            match proto::read_frame(&mut self.stream)? {
                FrameRead::Frame(payload) => {
                    return proto::parse_response(&payload)
                        .map(|resp| (request, resp))
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
                }
                FrameRead::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection before answering",
                    ));
                }
                FrameRead::Idle => {
                    idle += 1;
                    if idle > MAX_IDLE_POLLS {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "no response within the client timeout",
                        ));
                    }
                }
            }
        }
    }
}
