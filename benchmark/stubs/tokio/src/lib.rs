//! Offline stand-in for `tokio` 1.x — signatures only.
//!
//! No async runtime resolves in the sandbox, yet `gossiptrust-serve` and
//! `gossiptrust-net` name tokio types in their non-test code, so the crates
//! the benchmark measures cannot even type-check without *something* called
//! `tokio`. This crate provides the items they name; every body is
//! `unimplemented!()`. The benchmark never calls into it: its service
//! boundary is the request line (see benchmark/README.md, "What the line
//! boundary leaves out").
#![allow(clippy::all, async_fn_in_trait)]

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Swallows its arms: the code inside `select!` is not type-checked.
#[macro_export]
macro_rules! select {
    ($($tokens:tt)*) => {};
}

/// Spawn a task (never runs).
pub fn spawn<F: Future>(_future: F) -> task::JoinHandle<F::Output> {
    unimplemented!("tokio stand-in: no runtime")
}

pub mod task {
    use super::*;
    use std::marker::PhantomData;

    /// Handle of a spawned task.
    pub struct JoinHandle<T>(PhantomData<T>);

    impl<T> JoinHandle<T> {
        /// Cancel the task.
        pub fn abort(&self) {}
    }

    impl<T> Unpin for JoinHandle<T> {}

    impl<T> Future for JoinHandle<T> {
        type Output = Result<T, JoinError>;
        fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
            unimplemented!("tokio stand-in: no runtime")
        }
    }

    /// A task failed to run to completion.
    #[derive(Debug)]
    pub struct JoinError;

    /// Run blocking work off the async workers (never runs).
    pub fn spawn_blocking<F: FnOnce() -> R, R>(_f: F) -> JoinHandle<R> {
        unimplemented!("tokio stand-in: no runtime")
    }
}

pub mod time {
    use super::*;
    use std::time::Duration;

    pub mod error {
        /// A timeout elapsed.
        #[derive(Debug, PartialEq, Eq)]
        pub struct Elapsed;
    }

    /// Bound a future's run time.
    pub async fn timeout<F: Future>(_d: Duration, _f: F) -> Result<F::Output, error::Elapsed> {
        unimplemented!("tokio stand-in: no runtime")
    }

    /// Sleep.
    pub async fn sleep(_d: Duration) {
        unimplemented!("tokio stand-in: no runtime")
    }

    /// How an interval catches up after a missed tick.
    #[derive(Clone, Copy, Debug)]
    pub enum MissedTickBehavior {
        Burst,
        Delay,
        Skip,
    }

    /// Periodic timer.
    pub struct Interval;

    impl Interval {
        pub async fn tick(&mut self) -> std::time::Instant {
            unimplemented!("tokio stand-in: no runtime")
        }
        pub fn reset(&mut self) {}
        pub fn set_missed_tick_behavior(&mut self, _b: MissedTickBehavior) {}
    }

    /// A periodic timer.
    pub fn interval(_period: Duration) -> Interval {
        Interval
    }
}

pub mod io {
    use std::io;

    pub trait AsyncRead {}
    pub trait AsyncWrite {}
    pub trait AsyncBufRead: AsyncRead {}

    pub trait AsyncReadExt: AsyncRead {
        async fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            unimplemented!("tokio stand-in: no runtime")
        }
        async fn read_exact(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            unimplemented!("tokio stand-in: no runtime")
        }
        async fn read_to_end(&mut self, _buf: &mut Vec<u8>) -> io::Result<usize> {
            unimplemented!("tokio stand-in: no runtime")
        }
    }
    impl<R: AsyncRead + ?Sized> AsyncReadExt for R {}

    pub trait AsyncBufReadExt: AsyncBufRead {
        async fn fill_buf(&mut self) -> io::Result<&[u8]> {
            unimplemented!("tokio stand-in: no runtime")
        }
        fn consume(&mut self, _amt: usize) {}
        async fn read_line(&mut self, _buf: &mut String) -> io::Result<usize> {
            unimplemented!("tokio stand-in: no runtime")
        }
    }
    impl<R: AsyncBufRead + ?Sized> AsyncBufReadExt for R {}

    pub trait AsyncWriteExt: AsyncWrite {
        async fn write_all(&mut self, _src: &[u8]) -> io::Result<()> {
            unimplemented!("tokio stand-in: no runtime")
        }
        async fn flush(&mut self) -> io::Result<()> {
            unimplemented!("tokio stand-in: no runtime")
        }
        async fn shutdown(&mut self) -> io::Result<()> {
            unimplemented!("tokio stand-in: no runtime")
        }
    }
    impl<W: AsyncWrite + ?Sized> AsyncWriteExt for W {}

    /// Buffered reader.
    pub struct BufReader<R>(R);

    impl<R: AsyncRead> BufReader<R> {
        pub fn new(inner: R) -> Self {
            BufReader(inner)
        }
    }
    impl<R: AsyncRead> AsyncRead for BufReader<R> {}
    impl<R: AsyncRead> AsyncBufRead for BufReader<R> {}
}

pub mod net {
    use super::io::{AsyncRead, AsyncWrite};
    use std::io;
    use std::net::SocketAddr;

    pub struct TcpListener;

    impl TcpListener {
        pub async fn bind<A>(_addr: A) -> io::Result<TcpListener> {
            unimplemented!("tokio stand-in: no runtime")
        }
        pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
            unimplemented!("tokio stand-in: no runtime")
        }
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            unimplemented!("tokio stand-in: no runtime")
        }
    }

    pub struct TcpStream;

    impl TcpStream {
        pub async fn connect<A>(_addr: A) -> io::Result<TcpStream> {
            unimplemented!("tokio stand-in: no runtime")
        }
        pub fn into_split(self) -> (tcp::OwnedReadHalf, tcp::OwnedWriteHalf) {
            unimplemented!("tokio stand-in: no runtime")
        }
    }
    impl AsyncRead for TcpStream {}
    impl AsyncWrite for TcpStream {}

    pub mod tcp {
        use super::{AsyncRead, AsyncWrite};
        pub struct OwnedReadHalf;
        pub struct OwnedWriteHalf;
        impl AsyncRead for OwnedReadHalf {}
        impl AsyncWrite for OwnedWriteHalf {}
    }

    pub struct UdpSocket;

    impl UdpSocket {
        pub async fn bind<A>(_addr: A) -> io::Result<UdpSocket> {
            unimplemented!("tokio stand-in: no runtime")
        }
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            unimplemented!("tokio stand-in: no runtime")
        }
        pub async fn send_to<A>(&self, _buf: &[u8], _target: A) -> io::Result<usize> {
            unimplemented!("tokio stand-in: no runtime")
        }
        pub async fn recv_from(&self, _buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            unimplemented!("tokio stand-in: no runtime")
        }
    }
}

pub mod sync {
    pub mod mpsc {
        use std::marker::PhantomData;

        pub mod error {
            pub struct SendError<T>(pub T);
            impl<T> std::fmt::Debug for SendError<T> {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.write_str("SendError(..)")
                }
            }
            pub enum TrySendError<T> {
                Full(T),
                Closed(T),
            }
            impl<T> std::fmt::Debug for TrySendError<T> {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.write_str("TrySendError(..)")
                }
            }
            #[derive(Debug, PartialEq, Eq)]
            pub enum TryRecvError {
                Empty,
                Disconnected,
            }
        }

        pub struct Sender<T>(PhantomData<fn(T)>);

        impl<T> Clone for Sender<T> {
            fn clone(&self) -> Self {
                Sender(PhantomData)
            }
        }

        impl<T> Sender<T> {
            pub async fn send(&self, _value: T) -> Result<(), error::SendError<T>> {
                unimplemented!("tokio stand-in: no runtime")
            }
            pub fn try_send(&self, _value: T) -> Result<(), error::TrySendError<T>> {
                unimplemented!("tokio stand-in: no runtime")
            }
        }

        pub struct Receiver<T>(PhantomData<fn() -> T>);

        impl<T> Receiver<T> {
            pub async fn recv(&mut self) -> Option<T> {
                unimplemented!("tokio stand-in: no runtime")
            }
            pub fn try_recv(&mut self) -> Result<T, error::TryRecvError> {
                unimplemented!("tokio stand-in: no runtime")
            }
        }

        pub fn channel<T>(_buffer: usize) -> (Sender<T>, Receiver<T>) {
            (Sender(PhantomData), Receiver(PhantomData))
        }
    }

    pub mod oneshot {
        use std::future::Future;
        use std::marker::PhantomData;
        use std::pin::Pin;
        use std::task::{Context, Poll};

        pub mod error {
            #[derive(Debug, PartialEq, Eq)]
            pub struct RecvError;
        }

        pub struct Sender<T>(PhantomData<fn(T)>);

        impl<T> Sender<T> {
            pub fn send(self, _value: T) -> Result<(), T> {
                unimplemented!("tokio stand-in: no runtime")
            }
        }

        pub struct Receiver<T>(PhantomData<fn() -> T>);

        impl<T> Future for Receiver<T> {
            type Output = Result<T, error::RecvError>;
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
                unimplemented!("tokio stand-in: no runtime")
            }
        }

        pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
            (Sender(PhantomData), Receiver(PhantomData))
        }
    }
}
