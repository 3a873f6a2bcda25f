//! A minimal HTTP/1.1 keep-alive client for the load generator.
//!
//! It behaves like a correct client so the latency it measures belongs
//! to the server: `TCP_NODELAY` is set, each request goes out as one
//! write of one buffer, and a response carrying `Connection: close`
//! (the server closes after its per-connection request bound) makes
//! the next request reconnect — counted in `reconnects`, not as a
//! failure. Transport errors drop the connection and are returned to
//! the caller, which counts them as failed operations.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a request may wait for its response.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The server asked to close the connection.
    pub close: bool,
    /// Body text.
    pub body: String,
}

/// One persistent client connection.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Reconnections after the server closed a kept-alive connection
    /// or a transport error dropped it.
    pub reconnects: u64,
    connected_once: bool,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None, buf: Vec::new(), reconnects: 0, connected_once: false }
    }

    fn connect(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            if self.connected_once {
                self.reconnects += 1;
            }
            self.connected_once = true;
            self.buf.clear();
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Sends one request and reads its whole response.
    ///
    /// # Errors
    /// Connection, write, read and framing failures; the connection is
    /// dropped and the next call reconnects.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        let out = self.exchange(method, path, body);
        match &out {
            Ok(resp) if !resp.close => {}
            _ => self.stream = None,
        }
        out
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.connect()?.write_all(request.as_bytes())?;
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| framing("bad status line"))?;
        let (mut len, mut close) = (None, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => len = value.parse::<usize>().ok(),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let len = len.ok_or_else(|| framing("missing Content-Length"))?;
        let end = head_end + 4 + len;
        while self.buf.len() < end {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end + 4..end]).to_string();
        self.buf.drain(..end);
        Ok(Response { status, close, body })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let stream = self.stream.as_mut().ok_or_else(|| framing("not connected"))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn framing(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_serve::{ServeConfig, Server};

    /// A server that closes after two responses per connection: the
    /// client reconnects on the third request instead of failing.
    #[test]
    fn reconnects_after_connection_close() {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            disk_cache: false,
            keep_alive_requests: 2,
            ..Default::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("address");
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        let mut client = Client::new(addr);
        let closes: Vec<bool> = (0..5)
            .map(|_| {
                let resp = client.send("GET", "/healthz", "").expect("served");
                assert_eq!(resp.status, 200);
                resp.close
            })
            .collect();
        assert_eq!(closes, [false, true, false, true, false]);
        assert_eq!(client.reconnects, 2);
        drop(client);
        shutdown.request();
        thread.join().expect("server thread").expect("server run");
    }
}
