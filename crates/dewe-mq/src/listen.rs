//! Rebindable TCP listeners: `SO_REUSEADDR` with no libc dependency.
//!
//! A restarted master must rebind its advertised port while the dead
//! incarnation's connections linger in `TIME_WAIT` — without
//! `SO_REUSEADDR` the journal-recovery restart loses a race against the
//! kernel's 2×MSL timer and fails with `EADDRINUSE`. The standard
//! library's `TcpListener::bind` does not set the option, so on Linux
//! this module builds the socket with raw syscalls (libc-free) and
//! hands it to `TcpListener` via `FromRawFd`. Elsewhere it falls back to a plain
//! bind — tests that never restart a master are unaffected.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};

/// Bind a TCP listener with `SO_REUSEADDR` set (best effort; see module
/// docs). IPv4 addresses take the raw-syscall path on Linux; anything
/// else uses the standard bind.
pub fn bind_reuse(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    let mut last_err = None;
    for addr in addr.to_socket_addrs()? {
        match bind_one(addr) {
            Ok(l) => return Ok(l),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no addresses to bind")))
}

fn bind_one(addr: SocketAddr) -> io::Result<TcpListener> {
    match addr {
        SocketAddr::V4(v4) => bind_v4_reuse(v4).or_else(|_| TcpListener::bind(addr)),
        SocketAddr::V6(_) => TcpListener::bind(addr),
    }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn bind_v4_reuse(addr: std::net::SocketAddrV4) -> io::Result<TcpListener> {
    use std::os::fd::FromRawFd;

    const AF_INET: usize = 2;
    const SOCK_STREAM: usize = 1;
    const SOL_SOCKET: usize = 1;
    const SO_REUSEADDR: usize = 2;

    // struct sockaddr_in: family (u16 native), port (u16 BE),
    // addr (u32 BE), 8 bytes zero padding.
    let mut sa = [0u8; 16];
    sa[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
    sa[2..4].copy_from_slice(&addr.port().to_be_bytes());
    sa[4..8].copy_from_slice(&addr.ip().octets());

    unsafe {
        let fd = syscall3(SYS_SOCKET, AF_INET, SOCK_STREAM, 0);
        if fd < 0 {
            return Err(io::Error::from_raw_os_error(-fd as i32));
        }
        let fd_usize = fd as usize;
        let one: u32 = 1;
        let ret = syscall5(
            SYS_SETSOCKOPT,
            fd_usize,
            SOL_SOCKET,
            SO_REUSEADDR,
            (&one as *const u32) as usize,
            std::mem::size_of::<u32>(),
        );
        if ret < 0 {
            let _ = syscall3(SYS_CLOSE, fd_usize, 0, 0);
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        let ret = syscall3(SYS_BIND, fd_usize, sa.as_ptr() as usize, sa.len());
        if ret < 0 {
            let _ = syscall3(SYS_CLOSE, fd_usize, 0, 0);
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        let ret = syscall3(SYS_LISTEN, fd_usize, 128, 0);
        if ret < 0 {
            let _ = syscall3(SYS_CLOSE, fd_usize, 0, 0);
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(TcpListener::from_raw_fd(fd as i32))
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SYS_SOCKET: usize = 41;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SYS_BIND: usize = 49;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SYS_LISTEN: usize = 50;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SYS_SETSOCKOPT: usize = 54;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SYS_CLOSE: usize = 3;

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const SYS_SOCKET: usize = 198;
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const SYS_BIND: usize = 200;
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const SYS_LISTEN: usize = 201;
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const SYS_SETSOCKOPT: usize = 208;
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const SYS_CLOSE: usize = 57;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
    let mut ret: isize = nr as isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        lateout("rcx") _, // clobbered by the syscall instruction
        lateout("r11") _,
        options(nostack),
    );
    ret
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall5(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize) -> isize {
    let mut ret: isize = nr as isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
    let ret: isize;
    std::arch::asm!(
        "svc 0",
        in("x8") nr,
        inlateout("x0") a => ret,
        in("x1") b,
        in("x2") c,
        options(nostack),
    );
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall5(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize) -> isize {
    let ret: isize;
    std::arch::asm!(
        "svc 0",
        in("x8") nr,
        inlateout("x0") a => ret,
        in("x1") b,
        in("x2") c,
        in("x3") d,
        in("x4") e,
        options(nostack),
    );
    ret
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn reuse_listener_accepts_connections() {
        let listener = bind_reuse("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
        });
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        t.join().unwrap();
    }

    #[test]
    fn port_rebinds_immediately_after_active_connections() {
        // The restart scenario: accept a connection, close everything,
        // rebind the same port at once. With SO_REUSEADDR this succeeds
        // even while the old connection sits in TIME_WAIT.
        let listener = bind_reuse("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1];
            s.read_exact(&mut buf).unwrap();
            // Listener and accepted socket drop here (the "crash").
        });
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"x").unwrap();
        t.join().unwrap();
        drop(c);
        let relisten = bind_reuse(addr);
        assert!(relisten.is_ok(), "rebind after restart failed: {:?}", relisten.err());
    }
}
