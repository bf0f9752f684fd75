module mapdr/bench

go 1.24

require mapdr v0.0.0

replace mapdr => ../
