//! The transport floor: a thread-per-connection loopback echo server.
//!
//! A client sends a frame the size of an edge request (4-byte length
//! prefix, body whose first 4 bytes name the reply size) and the server
//! answers with a frame the size of the matching edge response. The round
//! trip is what li-server's would cost with no decode, queueing, store
//! work or encode — the floor `server.self_us` nets out.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

pub struct EchoServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<io::Result<()>>>,
}

impl EchoServer {
    pub fn spawn() -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("echo-acceptor".into())
            .spawn(move || accept_loop(&listener, &flag))?;
        Ok(EchoServer { addr, stop, acceptor: Some(acceptor) })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every server thread. Clients must have
    /// closed their connections first (each connection thread ends at EOF).
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> io::Result<()> {
        let Some(acceptor) = self.acceptor.take() else {
            return Ok(());
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept; the acceptor sees the flag and exits.
        drop(TcpStream::connect(self.addr));
        acceptor.join().map_err(|_| io::Error::other("echo acceptor panicked"))?
    }
}

impl Drop for EchoServer {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool) -> io::Result<()> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        stream.set_nodelay(true)?;
        conns.push(std::thread::spawn(move || {
            let _ = serve(stream);
        }));
    }
    for c in conns {
        c.join().map_err(|_| io::Error::other("echo connection panicked"))?;
    }
    Ok(())
}

fn serve(mut stream: TcpStream) -> io::Result<()> {
    let mut body = Vec::new();
    let mut reply = Vec::new();
    loop {
        let mut len = [0u8; 4];
        match stream.read_exact(&mut len) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        }
        body.resize(u32::from_le_bytes(len) as usize, 0);
        stream.read_exact(&mut body)?;
        let want = body.get(..4).map_or(4, |b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        reply.clear();
        reply.extend_from_slice(&want.to_le_bytes());
        reply.resize(4 + want as usize, 0);
        stream.write_all(&reply)?;
    }
}

/// A closed-loop echo client sending frames of fixed sizes.
pub struct EchoClient {
    stream: TcpStream,
    request: Vec<u8>,
    reply: Vec<u8>,
}

impl EchoClient {
    /// `request_frame` and `reply_frame` are whole frame sizes, length
    /// prefix included, as li-proto would put them on the wire.
    pub fn connect(addr: SocketAddr, request_frame: usize, reply_frame: usize) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let body = request_frame.max(8) - 4;
        let mut request = Vec::with_capacity(request_frame);
        request.extend_from_slice(&(body as u32).to_le_bytes());
        request.extend_from_slice(&((reply_frame.max(8) - 4) as u32).to_le_bytes());
        request.resize(4 + body, 0);
        Ok(EchoClient { stream, request, reply: vec![0; reply_frame.max(8)] })
    }

    pub fn call(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.request)?;
        self.stream.read_exact(&mut self.reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_replies_with_the_requested_size_and_shuts_down() {
        let server = EchoServer::spawn().expect("spawn");
        let mut c = EchoClient::connect(server.addr(), 25, 213).expect("connect");
        for _ in 0..3 {
            c.call().expect("call");
        }
        assert_eq!(u32::from_le_bytes(c.reply[..4].try_into().unwrap()), 209);
        drop(c);
        server.shutdown().expect("shutdown");
    }
}
