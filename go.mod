module github.com/activeiter/activeiter

go 1.22
