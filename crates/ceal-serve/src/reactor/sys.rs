//! Minimal Linux syscall surface for the reactor.
//!
//! The workspace is vendored-only and the `libc` crate is not among the
//! sanctioned dependencies, so the handful of calls the reactor needs —
//! `epoll`, `eventfd`, `setsockopt` and `setrlimit` — are declared here
//! directly. `std` already links the platform C library, so these
//! `extern "C"` declarations resolve against the same symbols `libc`
//! would re-export; `std::io::Error::last_os_error()` picks up `errno`.

#![allow(non_camel_case_types)]

use std::io;
use std::os::unix::io::RawFd;

type c_int = i32;
type c_uint = u32;
type c_void = std::ffi::c_void;

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;
const SO_RCVBUF: c_int = 8;

const RLIMIT_NOFILE: c_int = 7;

/// One epoll readiness record. The kernel packs `struct epoll_event`
/// only on x86-64 (12 bytes); every other architecture uses natural
/// alignment (16 bytes), so the Rust mirror's layout must match
/// per-arch or `epoll_wait` would write 16-byte records into a
/// 12-byte-stride buffer. Fields are only ever read by copy.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    /// Caller-chosen cookie, echoed back on readiness.
    pub data: u64,
}

// Layout must match the kernel ABI exactly or epoll_wait corrupts the
// event buffer: packed 12 bytes on x86-64, padded 16 everywhere else.
const _: () = assert!(
    std::mem::size_of::<EpollEvent>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 }
);

#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: c_uint,
    ) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance; closed on drop.
pub struct Epoll {
    fd: RawFd,
    /// `EPOLL_CTL_MOD` calls made, for tests that pin their number.
    #[cfg(test)]
    pub(crate) modifies: std::cell::Cell<u64>,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll {
            fd,
            #[cfg(test)]
            modifies: std::cell::Cell::new(0),
        })
    }

    /// Registers `fd` with interest `events` and cookie `data`.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
    }

    /// Changes `fd`'s interest set.
    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        #[cfg(test)]
        self.modifies.set(self.modifies.get() + 1);
        let mut ev = EpollEvent { events, data };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
    }

    /// Waits up to `timeout_ms` (`-1` = forever) and fills `events`;
    /// returns how many records are valid. `EINTR` reads as zero events.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd used to wake the reactor from worker threads.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd.
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw descriptor, for epoll registration.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Signals the reactor. Safe from any thread; a full counter (which
    /// cannot happen before 2^64-1 unconsumed wakes) is ignored.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Consumes all pending wakes.
    pub fn drain(&self) {
        let mut buf = 0u64;
        unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

fn set_buf_opt(fd: RawFd, opt: c_int, bytes: usize) -> io::Result<()> {
    let val = bytes as c_int;
    cvt(unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            opt,
            (&val as *const c_int).cast(),
            std::mem::size_of::<c_int>() as c_uint,
        )
    })
    .map(|_| ())
}

/// Sets `SO_SNDBUF` on a raw socket (the kernel may round the value).
pub fn set_send_buffer_fd(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, SO_SNDBUF, bytes)
}

/// Sets `SO_RCVBUF` on a raw socket (the kernel may round the value).
pub fn set_recv_buffer_fd(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, SO_RCVBUF, bytes)
}

/// Raises `RLIMIT_NOFILE` so at least `want` descriptors are available;
/// returns the resulting soft limit. Raising the hard limit needs
/// privilege, so an unprivileged process gets `min(want, hard)`.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur >= want {
        return Ok(lim.rlim_cur);
    }
    if lim.rlim_max < want {
        // Try to lift the hard cap too (works when privileged).
        let lifted = RLimit {
            rlim_cur: want,
            rlim_max: want,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &lifted) } == 0 {
            return Ok(want);
        }
    }
    let cur = want.min(lim.rlim_max);
    let raised = RLimit {
        rlim_cur: cur,
        rlim_max: lim.rlim_max,
    };
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &raised) })?;
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::io::AsRawFd as _;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.fd(), EPOLLIN, 42).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no wake yet");
        ev.wake();
        ev.wake();
        assert_eq!(ep.wait(&mut events, 100).unwrap(), 1);
        assert_eq!({ events[0].data }, 42);
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained");
    }

    #[test]
    fn epoll_reports_listener_readability() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!({ events[0].data }, 7);
        assert_ne!({ events[0].events } & EPOLLIN, 0);
    }

    #[test]
    fn nofile_limit_is_at_least_current() {
        let got = raise_nofile_limit(64).unwrap();
        assert!(got >= 64);
    }
}
