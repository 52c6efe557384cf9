//! Readiness waits for the server's event loops: one `poll(2)` call over a
//! thread's sockets, and a wake socket other threads write to when they hand
//! that thread work through a channel.
//!
//! The wake protocol is "send, then wake": a producer puts its message on
//! the channel *before* writing the wake byte, and the waiting thread drains
//! the wake socket *after* `poll` returns and before its next sweep of the
//! channels. A message that lands between the sweep's `try_recv` and the
//! `poll` therefore always finds the wake socket readable, so no wake-up is
//! lost; a byte drained early only costs one empty sweep.
//!
//! Hand-rolled because the offline workspace has no `libc`/`mio`; the one
//! `unsafe` call is the `poll` itself.

use std::io::{self, ErrorKind, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Readable (or peer closed): `POLLIN`.
pub(crate) const READABLE: i16 = 0x001;
/// Writable: `POLLOUT`.
pub(crate) const WRITABLE: i16 = 0x004;

/// One `struct pollfd`. An `fd` of `-1` is skipped by the kernel, which is
/// how a socket with no interest this round stays out of the wait —
/// `POLLHUP`/`POLLERR` are reported even for `events == 0`, so merely
/// clearing `events` would wake the caller for a hung-up peer forever.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Waits for `events` on `fd`.
    pub(crate) fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// A slot the kernel ignores.
    pub(crate) fn ignored() -> PollFd {
        PollFd::new(-1, 0)
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type NFds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NFds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
}

/// Blocks until some entry of `fds` is ready or `timeout` passes (`None`
/// waits indefinitely). The timeout is rounded *up* to whole milliseconds
/// so a caller waiting for a deadline never wakes just before it and spins
/// out the remainder. A signal interrupting the wait counts as a wake-up.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ms = match timeout {
        None => -1,
        Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
    };
    let nfds = NFds::try_from(fds.len())
        .map_err(|_| io::Error::new(ErrorKind::InvalidInput, "too many poll entries"))?;
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `pollfd`s and `nfds` is its exact length, so the kernel reads and
    // writes (`revents`) only inside it; the call keeps no pointer past
    // its return.
    let n = unsafe { poll(fds.as_mut_ptr(), nfds, ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// A socket pair one thread waits on and any thread can wake. Both ends
/// live together, so a wake written after the waiter has exited lands in a
/// buffer nobody reads rather than on a closed peer.
pub(crate) struct WakeSocket {
    rx: UnixStream,
    tx: UnixStream,
}

impl WakeSocket {
    pub(crate) fn new() -> io::Result<WakeSocket> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(WakeSocket { rx, tx })
    }

    /// The waiter's poll entry.
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::new(self.rx.as_raw_fd(), READABLE)
    }

    /// Wakes the waiter. Call *after* the channel send it announces.
    pub(crate) fn wake(&self) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "WouldBlock means the buffer already holds an unread wake, which is all a wake needs"
        )]
        let _ = (&self.tx).write(&[1]);
    }

    /// Empties the socket. Call after `wait` returns, before re-sweeping
    /// the channels the wakes announced.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wait_times_out_no_earlier_than_asked() {
        let wake = WakeSocket::new().expect("socket pair");
        let mut fds = [wake.poll_fd()];
        let t0 = Instant::now();
        wait(&mut fds, Some(Duration::from_micros(1500))).expect("poll");
        assert!(t0.elapsed() >= Duration::from_micros(1500));
    }

    #[test]
    fn a_wake_before_the_wait_is_not_lost() {
        let wake = WakeSocket::new().expect("socket pair");
        for _ in 0..10_000 {
            wake.wake(); // fills the buffer; extra wakes are dropped
        }
        let mut fds = [wake.poll_fd()];
        let t0 = Instant::now();
        wait(&mut fds, Some(Duration::from_secs(10))).expect("poll");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "pending wake ignored"
        );
        wake.drain();
        wait(&mut fds, Some(Duration::from_millis(20))).expect("poll");
        assert_eq!(fds[0].revents, 0, "drain leaves nothing pending");
    }

    #[test]
    fn ignored_slots_do_not_report_hangups() {
        let (a, b) = UnixStream::pair().expect("pair");
        drop(b); // `a` now reports POLLHUP whatever it asks for
        let mut no_events = [PollFd::new(a.as_raw_fd(), 0)];
        wait(&mut no_events, None).expect("poll");
        assert_ne!(
            no_events[0].revents, 0,
            "a hung-up peer wakes even events == 0"
        );
        let mut fds = [PollFd::ignored()];
        let t0 = Instant::now();
        wait(&mut fds, Some(Duration::from_millis(30))).expect("poll");
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert_eq!(fds[0].revents, 0);
    }
}
