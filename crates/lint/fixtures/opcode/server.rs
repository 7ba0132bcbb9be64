// Handler file for the opcode-coverage fixture tree: dispatches Ping
// and produces Ok; Orphan and Lost appear only in its tests, which do
// not count as handling them.

fn dispatch(req: Request) -> Response {
    match req {
        Request::Ping => Response::Ok,
        other => Response::Ok,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn orphan_is_only_mentioned_in_tests() {
        dispatch(Request::Orphan { payload: vec![] });
        let _ = Response::Lost { code: 0 };
    }
}
