//! `ndq serve --listen` over loopback, driven as a subprocess.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Kills the server when the test ends, also when it fails.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A client that stops reading its replies must not stall the others:
/// the session lock is released before a reply is written to a socket.
#[test]
fn stalled_client_does_not_block_other_connections() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ndq"))
        .args(["serve", "--graph", "grid:30x30", "--query", "dist(x,y) > 2"])
        .args(["--workers", "2", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ndq serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let _server = Server(child);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let read = stderr.read_line(&mut line).expect("read stderr");
        assert!(read > 0, "ndq serve exited before listening");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.split_whitespace().next().expect("address").to_string();
        }
    };

    // Client A asks for far more reply bytes (about 25 MB) than the
    // loopback socket buffers hold and never reads them, so the server's
    // write to A blocks for good.
    let mut a = TcpStream::connect(&addr).expect("connect client A");
    a.write_all("page 0,0 20000\n".repeat(200).as_bytes())
        .expect("send A's requests");
    // Time for A's buffers to fill, so that a reply written under the
    // session lock would be holding it by now.
    std::thread::sleep(Duration::from_millis(500));

    let b = TcpStream::connect(&addr).expect("connect client B");
    b.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    (&b).write_all(b"test 0,1\n").expect("send B's request");
    let mut reply = String::new();
    let read = BufReader::new(&b).read_line(&mut reply);
    assert!(
        matches!(read, Ok(n) if n > 0),
        "client B got no reply within 5 s while client A was not reading: {read:?}"
    );
    // 0 and 1 are adjacent in the grid, so `dist(0,1) > 2` is false.
    assert_eq!(reply.trim(), "false");
}
