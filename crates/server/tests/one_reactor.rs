//! The server is one I/O thread however many clients connect: text and
//! binary connections are codecs on the reactor, not threads of their
//! own. The thread count comes from `/proc/self/task` (Linux, like the
//! epoll poller), so this test lives alone in its binary — no other
//! test's threads can move the count.

use datacell_server::{Client, Server, ServerConfig};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task").count()
}

#[test]
fn connections_cost_no_threads() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let before = threads();

    let mut clients = Vec::new();
    for _ in 0..64 {
        let mut c = Client::connect(addr).unwrap();
        c.ping().unwrap();
        clients.push(c);
    }
    for _ in 0..64 {
        let mut c = Client::connect_binary(addr).unwrap();
        c.ping().unwrap();
        clients.push(c);
    }
    assert_eq!(threads(), before, "128 open connections grew the thread count");
    assert_eq!(server.stats().sessions_opened, 128);

    drop(clients);
    server.shutdown();
}
