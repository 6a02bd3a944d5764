//! `poll(2)`, through the C library the standard library already links.
//!
//! One thread that serves many sockets sleeps here: it names the
//! descriptors and what it wants of each, and wakes when one is ready or
//! the timeout runs out. Readiness is level-triggered, so a caller that
//! leaves bytes unread, or was woken for a descriptor somebody else got to
//! first, is simply told again — or not — on its next call.

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// There is data to read, or a connection to accept, or end of stream.
pub const POLLIN: i16 = 0x1;
/// Writing would not block.
pub const POLLOUT: i16 = 0x4;

/// One descriptor, what the caller wants to know of it (`events`) and what
/// the kernel answered (`revents`, which may also carry error and hang-up
/// bits nobody asked for: anything non-zero means "look at it").
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    /// The kernel's answer from the last [`poll`].
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: &impl AsRawFd, events: i16) -> Self {
        Self { fd: fd.as_raw_fd(), events, revents: 0 }
    }

    /// True if this entry watches `fd`.
    pub fn is(&self, fd: &impl AsRawFd) -> bool {
        self.fd == fd.as_raw_fd()
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    #[link_name = "poll"]
    fn c_poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: std::ffi::c_int) -> std::ffi::c_int;
}

/// Sleep until one of `fds` is ready or `timeout` has passed (rounded up to
/// the millisecond; zero does not sleep). Returns how many entries have a
/// non-zero `revents`; a signal is a wake-up with none.
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // records laid out as `struct pollfd`, and its own length is passed.
    let ready = unsafe { c_poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    match ready {
        n if n >= 0 => Ok(n as usize),
        _ => match io::Error::last_os_error() {
            e if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            e => Err(e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn reports_what_is_ready_and_waits_out_what_is_not() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(&b, POLLIN), PollFd::new(&a, POLLOUT)];
        assert!(fds[0].is(&b) && !fds[0].is(&a));
        assert_eq!(poll(&mut fds, Duration::ZERO).unwrap(), 1);
        assert_eq!((fds[0].revents, fds[1].revents), (0, POLLOUT));

        let began = Instant::now();
        assert_eq!(poll(&mut fds[..1], Duration::from_millis(30)).unwrap(), 0);
        assert!(began.elapsed() >= Duration::from_millis(25), "nothing to read: the timeout");

        a.write_all(b"x").unwrap();
        assert_eq!(poll(&mut fds[..1], Duration::from_secs(10)).unwrap(), 1);
        assert_eq!(fds[0].revents & POLLIN, POLLIN);
        drop(a);
        assert_eq!(poll(&mut fds[..1], Duration::from_secs(10)).unwrap(), 1, "hang-up is ready");
    }
}
