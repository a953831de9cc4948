//! Fixture: a lane lock held across the calls that drive a session to
//! completion — every remaining layer of the sentence runs under it.

use std::sync::Mutex;

pub struct Session;

impl Session {
    pub fn finish(self) {}
    pub fn run_to_completion(self) {}
}

pub fn finish_locked(queue: &Mutex<Vec<u32>>, session: Session) {
    let guard = queue.lock().unwrap();
    session.finish(); // line 15: lock-across-step
    drop(guard);
}

pub fn complete_locked(queue: &Mutex<Vec<u32>>, session: Session) {
    let guard = queue.lock().unwrap();
    session.run_to_completion(); // line 21: lock-across-step
    drop(guard);
}
