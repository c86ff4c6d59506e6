//! A blocking `DCB1` client: one connection, depth 1 or pipelined, built on
//! the server crate's own codec so the bytes on the wire are exactly what
//! any binary client sends.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dc_serve::codec::{self, ResponseStep, STATUS_OK};
use dc_serve::protocol::Request;

/// One decoded response frame.
#[derive(Debug)]
pub struct Response {
    pub status: u8,
    pub line: String,
}

impl Response {
    pub fn is_ok(&self) -> bool {
        self.status == STATUS_OK
    }
}

/// Encodes `req` as one `DCB1` request frame.
pub fn frame(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    codec::encode_request(req, &mut out);
    out
}

/// The frame of a dc-ql statement.
pub fn query_frame(text: &str) -> Vec<u8> {
    frame(&Request::Query {
        text: text.to_string(),
    })
}

pub struct Client {
    stream: TcpStream,
    inbox: Vec<u8>,
    scratch: Vec<u8>,
    /// Bytes sent / received, for `reactor.bytes_per_request`.
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl Client {
    /// Connects and sends the binary preamble.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.write_all(&codec::MAGIC)?;
        Ok(Client {
            stream,
            inbox: Vec::with_capacity(1 << 16),
            scratch: vec![0; 1 << 16],
            bytes_out: codec::MAGIC.len() as u64,
            bytes_in: 0,
        })
    }

    /// A second handle on the same socket, for a reader thread beside a
    /// pipelining writer.
    pub fn try_clone(&self) -> io::Result<Client> {
        Ok(Client {
            stream: self.stream.try_clone()?,
            inbox: Vec::with_capacity(1 << 16),
            scratch: vec![0; 1 << 16],
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// Writes one already-encoded frame without waiting for its response.
    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.bytes_out += frame.len() as u64;
        self.stream.write_all(frame)
    }

    /// Blocks until the next whole response frame is decoded.
    pub fn recv(&mut self) -> io::Result<Response> {
        loop {
            match codec::decode_response(&self.inbox) {
                ResponseStep::Frame {
                    consumed,
                    status,
                    response,
                } => {
                    self.inbox.drain(..consumed);
                    return Ok(Response {
                        status,
                        line: response,
                    });
                }
                ResponseStep::Incomplete => {}
                ResponseStep::Fatal(e) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                }
            }
            let n = self.stream.read(&mut self.scratch)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.bytes_in += n as u64;
            self.inbox.extend_from_slice(&self.scratch[..n]);
        }
    }

    /// One closed-loop round trip: send → full response decoded.
    pub fn call(&mut self, frame: &[u8]) -> io::Result<(Response, Duration)> {
        let t0 = Instant::now();
        self.send(frame)?;
        let resp = self.recv()?;
        Ok((resp, t0.elapsed()))
    }

    /// Round trip of a typed request.
    pub fn request(&mut self, req: &Request) -> io::Result<(Response, Duration)> {
        self.call(&frame(req))
    }
}
